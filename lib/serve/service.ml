open Rlc_circuit
open Rlc_numerics
module Pool = Rlc_parallel.Pool
module M = Rlc_instr.Metrics
module Timer = Rlc_instr.Timer
module Journal = Rlc_instr.Journal
module Health = Rlc_instr.Health
module Span = Rlc_instr.Span

let m_jobs = M.counter "serve.jobs"
let m_errors = M.counter "serve.errors"
let m_batches = M.counter "serve.batches"
let m_resym = M.counter "serve.cache.resym"
let m_memo_hit = M.counter "serve.memo.hit"
let m_memo_miss = M.counter "serve.memo.miss"
let m_memo_evict = M.counter "serve.memo.evict"
let m_job_s = M.hist "serve.job_s"
let m_prepare_s = M.hist "serve.batch.prepare_s"
let m_dc_s = M.hist "serve.dc_s"
let m_ac_s = M.hist "serve.ac_s"
let m_tran_s = M.hist "serve.tran_s"
let m_delay_s = M.hist "serve.delay_s"
let m_sens_s = M.hist "serve.delay_sens_s"

type config = {
  pool : Pool.t;
  cache_capacity : int;
  memo_capacity : int;
  batch_size : int;
}

let default_config =
  {
    pool = Pool.sequential;
    cache_capacity = 64;
    memo_capacity = 512;
    batch_size = 64;
  }

(* The second cache level: exact deck text (by digest) to its parsed
   netlist, structural keys and stamped assembly.  Where the
   structural cache shares artifacts across value-only *variants*,
   the memo short-circuits byte-identical *replays* — a resubmitted
   deck skips parse, hash and stamping and goes straight to numeric
   work.  Sound because the key is the exact text; an entry is built
   whole, once, and never changed, and all entries are created and
   read on the coordinating domain. *)
module Memo = struct
  type entry = {
    netlist : Netlist.t;
    skey : Netlist.structural_key;
        (* the hash/signature pairing travels as one value; it can no
           longer be recombined across netlists *)
    asm : Assembly.t;
  }

  (* counts the memo's hit/miss/evict metrics around the shared LRU *)
  let find lru key =
    let r = Lru.find lru key in
    M.incr (match r with Some _ -> m_memo_hit | None -> m_memo_miss);
    r

  let insert lru key entry =
    for _ = 1 to Lru.insert lru key entry do
      M.incr m_memo_evict
    done
end

type t = {
  cfg : config;
  cache : Deck_cache.t;
  memo : Memo.entry Lru.t;
  mutable jobs : int;
  mutable errors : int;
  mutable batches : int;
  mutable resyms : int;
  mutable busy_s : float;
  mutable seq : int;
      (* monotone per-service job counter: provenance ids are
         [<job.id>#<seq>], unique even when clients reuse ids *)
}

let create ?(config = default_config) () =
  if config.batch_size < 1 then
    invalid_arg "Service.create: batch_size < 1";
  if config.memo_capacity < 0 then
    invalid_arg "Service.create: memo_capacity < 0";
  {
    cfg = config;
    cache = Deck_cache.create ~capacity:config.cache_capacity ();
    memo = Lru.create config.memo_capacity;
    jobs = 0;
    errors = 0;
    batches = 0;
    resyms = 0;
    busy_s = 0.0;
    seq = 0;
  }

let config t = t.cfg
let cache_stats t = Deck_cache.stats t.cache

(* ------------------------------------------------------------------ *)
(* phase A: prepare (sequential)                                       *)
(* ------------------------------------------------------------------ *)

(* A line ready for the pool: either a result decided during prepare
   (malformed line, unreadable deck, parse error) or a runnable job.
   [entry] is [None] on the alias path — a hash collision must not
   touch the cached artifacts.  [asm] is the memo entry's stamped
   assembly. *)
type exec =
  | E_done of Protocol.result
  | E_run of {
      job : Protocol.job;
      prov : string;  (** provenance id stamped on journal events *)
      netlist : Netlist.t;
      entry : Deck_cache.entry option;
      asm : Assembly.t;
    }

let deck_text = function
  | Protocol.Deck_inline text -> text
  | Protocol.Deck_file path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let sparse_plan (p : Solver.plan) = p.Solver.choice = Solver.Sparse_lu

(* Build the DC and AC symbolics [query] needs that [e] still lacks —
   runs at most once per (family, query kind), sequentially, so the
   entry mutation is domain-safe.  The transient companion structure is
   not built here: the family's first run plans and analyses it anyway
   and hands it back (see [install]).  The failures its two calls raise
   on a bad deck (a singular matrix) are swallowed: execution hits the
   same condition on the same values and reports it per job, keeping
   cold and warm passes identical.  Anything else ([Out_of_memory],
   [Stack_overflow], a bug) propagates. *)
let ensure_artifacts e query asm =
  try
    match query with
    | Protocol.Q_dc _ | Protocol.Q_delay_sens _ ->
        if e.Deck_cache.dc_sym = None && sparse_plan e.Deck_cache.asm_plan
        then e.Deck_cache.dc_sym <- Solver.symbolic_of (Assembly.factor_g asm)
    | Protocol.Q_ac { fstart; _ } ->
        if e.Deck_cache.ac_sym = None && sparse_plan e.Deck_cache.asm_plan
        then
          e.Deck_cache.ac_sym <-
            Assembly.cengine_symbolic
              (Assembly.cengine asm ~s_ref:(Ac.s_of_freq fstart))
    | Protocol.Q_tran _ | Protocol.Q_delay _ -> ()
  with
  | Failure _ | Invalid_argument _ | Solver.Singular -> ()

let kind_name = function
  | Protocol.Q_dc _ -> "dc"
  | Protocol.Q_ac _ -> "ac"
  | Protocol.Q_tran _ -> "tran"
  | Protocol.Q_delay _ -> "delay"
  | Protocol.Q_delay_sens _ -> "delay-sens"

(* A prepare-time rejection never runs, so its journal trace is the
   single terminal event. *)
let journal_rejected job =
  if Journal.capturing () then
    Journal.record "job.end"
      [
        ("kind", Journal.Str (kind_name job.Protocol.query));
        ("status", Journal.Str "rejected");
      ]

(* A deck's netlist, structural-cache entry and stamped assembly.  The
   memo is keyed on the exact bytes: a byte-identical replay skips the
   parse, the structural hash and the stamping, and only probes the
   structural cache.  A memo miss builds the whole entry at once. *)
let stage t text query =
  let key = Digest.string text in
  let memo = Memo.find t.memo key in
  let netlist, skey =
    match memo with
    | Some m -> (m.Memo.netlist, m.Memo.skey)
    | None ->
        let netlist = (Parser.parse_string text).Parser.netlist in
        (netlist, Netlist.structural_key netlist)
  in
  let probe = Deck_cache.find_key t.cache skey in
  if Journal.capturing () then
    Journal.record
      (match probe with
      | Deck_cache.Hit _ -> "cache.hit"
      | Deck_cache.Alias -> "cache.alias"
      | Deck_cache.Miss -> "cache.miss")
      [];
  (* stamped once per exact text: under the family plan when the
     structural cache knows the pattern, with full validation on first
     sight of a family or on an alias *)
  let asm =
    match (memo, probe) with
    | Some m, _ -> m.Memo.asm
    | None, Deck_cache.Hit e ->
        Assembly.of_netlist ~plan:e.Deck_cache.asm_plan ~validate:false
          netlist
    | None, (Deck_cache.Alias | Deck_cache.Miss) ->
        Assembly.of_netlist netlist
  in
  if Option.is_none memo then
    Memo.insert t.memo key { Memo.netlist; skey; asm };
  let entry =
    match probe with
    | Deck_cache.Alias -> None
    | Deck_cache.Hit e -> Some e
    | Deck_cache.Miss ->
        let e =
          {
            Deck_cache.signature = skey.Netlist.signature;
            asm_plan = asm.Assembly.plan;
            dc_sym = None;
            ac_sym = None;
            tran_plan = None;
          }
        in
        Deck_cache.insert_key t.cache skey e;
        Some e
  in
  Option.iter (fun e -> ensure_artifacts e query asm) entry;
  (netlist, entry, asm)

let prepare t line =
  match Protocol.parse_job_line line with
  | Protocol.Blank -> None
  | Protocol.Malformed { id; message } ->
      Some (E_done { Protocol.id; reply = Error ("bad job line: " ^ message) })
  | Protocol.Job job ->
      t.seq <- t.seq + 1;
      let prov = Printf.sprintf "%s#%d" job.Protocol.id t.seq in
      let exec =
        Journal.with_provenance prov (fun () ->
            try
              let netlist, entry, asm =
                stage t (deck_text job.Protocol.deck) job.Protocol.query
              in
              E_run { job; prov; netlist; entry; asm }
            with
            | Parser.Parse_error (ln, msg) ->
                journal_rejected job;
                E_done
                  {
                    Protocol.id = job.Protocol.id;
                    reply = Error (Printf.sprintf "deck line %d: %s" ln msg);
                  }
            | Sys_error msg | Invalid_argument msg | Failure msg ->
                journal_rejected job;
                E_done { Protocol.id = job.Protocol.id; reply = Error msg })
      in
      Some exec

(* ------------------------------------------------------------------ *)
(* phase B: execute (parallel, read-only on cache entries)             *)
(* ------------------------------------------------------------------ *)

let resolve_node netlist name =
  match Parser.find_node netlist name with
  | Some n -> n
  | None -> failwith (Printf.sprintf "unknown node %S" name)

let waveform_summary w =
  let values = Rlc_waveform.Waveform.values w in
  let n = Array.length values in
  if n = 0 then failwith "empty waveform";
  let vmin = ref values.(0) and vmax = ref values.(0) in
  Array.iter
    (fun v ->
      if v < !vmin then vmin := v;
      if v > !vmax then vmax := v)
    values;
  (values.(n - 1), !vmin, !vmax)

(* What a job hands back to phase C: the artifact it ended with, for
   the entry slot it read [given] from, when the two differ — the
   companion structure of a family's first transient run, or the
   symbolic of a repivot fallback that abandoned the cached analysis
   (the factor no longer shares it physically). *)
type handback =
  | Dc_sym of { given : Solver.symbolic option; ended : Solver.symbolic }
  | Tran_structure of {
      given : Transient.structure option;
      ended : Transient.structure;
    }

let dc_handback given ended =
  match (given, ended) with
  | Some g, Some e when g == e -> None
  | _, Some ended -> Some (Dc_sym { given; ended })
  | _, None -> None

let simulate_probe entry netlist node ~dt ~t_end =
  let given = Option.bind entry (fun e -> e.Deck_cache.tran_plan) in
  let config = { Transient.Config.default with plan_hint = given } in
  let probe = Transient.Node_v node in
  let res = Transient.simulate ~config netlist ~t_end ~dt ~probes:[ probe ] in
  let ended = Transient.final_structure res in
  let handback =
    match given with
    | Some g when g == ended -> None
    | _ -> Some (Tran_structure { given; ended })
  in
  (Transient.get res probe, Transient.steps_taken res, handback)

(* Runs on a pool worker: the job's outcome and its hand-back, which
   the coordinator installs in phase C.  Every query reads the memo
   entry's stamped assembly and the family's cached symbolics, so a
   warm job plans and analyses nothing. *)
let run_query ~entry ~asm (job : Protocol.job) netlist =
  let dc_sym = Option.bind entry (fun e -> e.Deck_cache.dc_sym) in
  match job.Protocol.query with
  | Protocol.Q_dc { node } ->
      let n = resolve_node netlist node in
      let sys = Dc.make ~assembly:asm ?symbolic:dc_sym netlist in
      ( Protocol.R_dc (Dc.voltages sys).(n),
        dc_handback dc_sym (Dc.g_symbolic sys) )
  | Protocol.Q_ac { node; points_per_decade; fstart; fstop } ->
      let n = resolve_node netlist node in
      if n = Netlist.ground then failwith "cannot ac-probe ground";
      if Array.length asm.Assembly.inputs = 0 then
        failwith "deck has no independent source";
      let symbolic = Option.bind entry (fun e -> e.Deck_cache.ac_sym) in
      let freqs = Ac.decade_grid ~points_per_decade ~fstart ~fstop in
      let ce = Assembly.cengine ?symbolic asm ~s_ref:(Ac.s_of_freq fstart) in
      let scratch = Assembly.cengine_scratch ce in
      let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
      let x = Array.make asm.Assembly.size Cx.zero in
      let points =
        Array.map
          (fun freq ->
            Assembly.cengine_solve_into ce scratch ~s:(Ac.s_of_freq freq)
              ~rhs ~x;
            Ac.point_of ~freq x.(n - 1))
          freqs
      in
      (Protocol.R_ac points, None)
  | Protocol.Q_tran { node; dt; t_end } ->
      let n = resolve_node netlist node in
      let w, steps, handback = simulate_probe entry netlist n ~dt ~t_end in
      let final, vmin, vmax = waveform_summary w in
      (Protocol.R_tran { final; vmin; vmax; steps }, handback)
  | Protocol.Q_delay { node; fraction; dt; t_end } ->
      let n = resolve_node netlist node in
      let w, _, handback = simulate_probe entry netlist n ~dt ~t_end in
      let v_final, _, _ = waveform_summary w in
      ( Protocol.R_delay
          (Rlc_waveform.Measure.threshold_delay w ~fraction ~v_final),
        handback )
  | Protocol.Q_delay_sens { node; fraction; params } ->
      let n = resolve_node netlist node in
      if n = Netlist.ground then
        failwith "cannot take delay sensitivities at ground";
      (* the workspace is mutable, so it is built per job, but from
         the cached assembly and DC symbolic *)
      let ws =
        Whatif.compile ~f:fraction ~assembly:asm ?symbolic:dc_sym netlist
      in
      let parse_param tok =
        let bad () =
          failwith (Printf.sprintf "bad param %S (want name:r|l|c|m)" tok)
        in
        match String.rindex_opt tok ':' with
        | None -> bad ()
        | Some i ->
            let name = String.sub tok 0 i in
            let kind =
              match
                String.lowercase_ascii
                  (String.sub tok (i + 1) (String.length tok - i - 1))
              with
              | "r" -> `R
              | "l" -> `L
              | "c" -> `C
              | "m" -> `M
              | _ -> bad ()
            in
            if name = "" then bad ();
            Whatif.param ws name kind
      in
      let wrt = Array.of_list (List.map parse_param params) in
      let target = Whatif.Delay n in
      let tau = Whatif.evaluate ws target in
      let g = Whatif.gradient ws target ~wrt in
      let sens =
        Array.map2 (fun tok v -> (tok, v)) (Array.of_list params) g
      in
      ( Protocol.R_delay_sens { tau; sens },
        dc_handback dc_sym (Whatif.g_symbolic ws) )

let latency_hist = function
  | Protocol.Q_dc _ -> m_dc_s
  | Protocol.Q_ac _ -> m_ac_s
  | Protocol.Q_tran _ -> m_tran_s
  | Protocol.Q_delay _ -> m_delay_s
  | Protocol.Q_delay_sens _ -> m_sens_s

let execute prep =
  match prep with
  | E_done r -> (r, None)
  | E_run { job; prov; netlist; entry; asm } -> (
      let capturing = Journal.capturing () in
      let kind = kind_name job.Protocol.query in
      if capturing then begin
        (* runs on a pool worker: stamps the worker's own shard, so
           every numerics probe fired by this job inherits the id *)
        Journal.set_provenance prov;
        Journal.record "job.start" [ ("kind", Journal.Str kind) ]
      end;
      let clock = Timer.start () in
      let finish ~status reply =
        let dt = Timer.elapsed_s clock in
        M.observe m_job_s dt;
        M.observe (latency_hist job.Protocol.query) dt;
        if capturing then begin
          Journal.record "job.end"
            [
              ("kind", Journal.Str kind);
              ("status", Journal.Str status);
              ("s", Journal.Num dt);
            ];
          Journal.set_provenance ""
        end;
        reply
      in
      match
        Span.with_ "serve.job" (fun () -> run_query ~entry ~asm job netlist)
      with
      | outcome, handback ->
          finish ~status:"ok"
            ({ Protocol.id = job.Protocol.id; reply = Ok outcome }, handback)
      | exception e ->
          let msg =
            match e with
            | Failure m | Invalid_argument m | Sys_error m -> m
            | e -> Printexc.to_string e
          in
          finish ~status:"error"
            ({ Protocol.id = job.Protocol.id; reply = Error msg }, None))

(* ------------------------------------------------------------------ *)
(* phase C: postprocess (sequential) and the batch driver              *)
(* ------------------------------------------------------------------ *)

(* The [# health:] note for one err result: the worst health
   classification journaled under the job's provenance id.  Only
   consulted for errors while capturing, so the [Journal.events] merge
   stays off every hot path. *)
let health_note prep =
  match prep with
  | E_done _ -> None
  | E_run { prov; _ } -> (
      match Health.worst_for (Journal.events ()) ~provenance:prov with
      | Some (c, reason) ->
          Some (Printf.sprintf "%s (%s)" (Health.to_string c) reason)
      | None -> None)

(* Phase C's one install rule, for every cached symbolic: a hand-back
   replaces the slot it was read from while the slot still holds what
   the job was given, so the first hand-back of a batch wins.  Replacing
   a cached artifact (a repivot) counts as a resym; filling an empty
   slot (a first discovery) does not. *)
let install t e prov handback =
  let replaced =
    match handback with
    | Dc_sym { given; ended } when e.Deck_cache.dc_sym == given ->
        e.Deck_cache.dc_sym <- Some ended;
        Option.is_some given
    | Tran_structure { given; ended } when e.Deck_cache.tran_plan == given ->
        e.Deck_cache.tran_plan <- Some ended;
        Option.is_some given
    | Dc_sym _ | Tran_structure _ -> false
  in
  if replaced then begin
    t.resyms <- t.resyms + 1;
    M.incr m_resym;
    if Journal.capturing () then
      Journal.with_provenance prov (fun () -> Journal.record "cache.resym" [])
  end

let run_batch t lines =
  let clock = Timer.start () in
  let preps =
    M.timed m_prepare_s (fun () ->
        Array.of_list (List.filter_map (prepare t) lines))
  in
  let out = Pool.map t.cfg.pool execute preps in
  let capturing = Journal.capturing () in
  let rendered =
    Array.mapi
      (fun i (result, handback) ->
        (match (handback, preps.(i)) with
        | Some h, E_run { entry = Some e; prov; _ } -> install t e prov h
        | _ -> ());
        (match result.Protocol.reply with
        | Error _ ->
            t.errors <- t.errors + 1;
            M.incr m_errors
        | Ok _ -> ());
        let line = Protocol.result_line result in
        match result.Protocol.reply with
        | Error _ when capturing -> (
            match health_note preps.(i) with
            | Some note -> Protocol.annotate_health line ~note
            | None -> line)
        | _ -> line)
      out
  in
  t.jobs <- t.jobs + Array.length preps;
  M.add m_jobs (float_of_int (Array.length preps));
  t.batches <- t.batches + 1;
  M.incr m_batches;
  t.busy_s <- t.busy_s +. Timer.elapsed_s clock;
  Array.to_list rendered

let rec take_batch n = function
  | rest when n = 0 -> ([], rest)
  | [] -> ([], [])
  | line :: rest ->
      let batch, remainder = take_batch (n - 1) rest in
      (line :: batch, remainder)

let rec process_lines t lines =
  match take_batch t.cfg.batch_size lines with
  | [], _ -> []
  | batch, rest -> run_batch t batch @ process_lines t rest

let run_channel t ic oc =
  let pending = ref [] and count = ref 0 in
  let flush_batch () =
    if !count > 0 then begin
      let lines = List.rev !pending in
      pending := [];
      count := 0;
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (process_lines t lines);
      flush oc
    end
  in
  (try
     while true do
       pending := input_line ic :: !pending;
       incr count;
       if !count >= t.cfg.batch_size then flush_batch ()
     done
   with End_of_file -> ());
  flush_batch ()

(* ------------------------------------------------------------------ *)
(* summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  jobs : int;
  errors : int;
  batches : int;
  resyms : int;
  busy_s : float;
  decks_per_s : float;
  latency_quantiles : (float * float * float) option;
  cache : Deck_cache.stats;
}

let summary (t : t) =
  let latency_quantiles =
    match M.hist_quantiles m_job_s [| 0.5; 0.9; 0.99 |] with
    | Some [| p50; p90; p99 |] -> Some (p50, p90, p99)
    | Some _ | None -> None
  in
  {
    jobs = t.jobs;
    errors = t.errors;
    batches = t.batches;
    resyms = t.resyms;
    busy_s = t.busy_s;
    decks_per_s = (if t.busy_s > 0.0 then float_of_int t.jobs /. t.busy_s
                   else 0.0);
    latency_quantiles;
    cache = Deck_cache.stats t.cache;
  }

let pp_summary fmt t =
  let s = summary t in
  Format.fprintf fmt "serve: %d jobs in %.3f s (%.1f decks/s), %d errors, %d batches@."
    s.jobs s.busy_s s.decks_per_s s.errors s.batches;
  Format.fprintf fmt
    "cache: %d hits / %d misses / %d aliases / %d evictions (%d entries), %d symbolic refreshes@."
    s.cache.Deck_cache.hits s.cache.Deck_cache.misses s.cache.Deck_cache.aliases
    s.cache.Deck_cache.evictions s.cache.Deck_cache.entries s.resyms;
  match s.latency_quantiles with
  | Some (p50, p90, p99) ->
      Format.fprintf fmt
        "latency: p50 <= %.3g s, p90 <= %.3g s, p99 <= %.3g s@." p50 p90 p99
  | None -> ()
