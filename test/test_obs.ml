(* Tests for the observability layer: the journal record/read paths
   (provenance stamping, caps, JSONL round-trip through the rlcstat
   parser), numerical-health classification and probes, the per-job
   provenance chains the serving layer writes (cache traffic → job
   lifecycle → solver fallback / health events → err annotation), the
   rlcstat rollup over those chains, spans as journal events and the
   Chrome trace rendered from them, snapshot regression diffs, and
   bitwise waveform/stream identity with journaling on. *)

open Rlc_circuit
module M = Rlc_instr.Metrics
module Control = Rlc_instr.Control
module Journal = Rlc_instr.Journal
module Health = Rlc_instr.Health
module Jsonv = Rlc_instr.Jsonv
module Stat = Rlc_instr.Stat
module Pool = Rlc_parallel.Pool
module Protocol = Rlc_serve.Protocol
module Service = Rlc_serve.Service

(* Run [f] with journaling (and therefore recording) on, restoring
   both switches; the suite must behave the same under RLC_STATS=1. *)
let with_journal f =
  let was = Control.enabled () in
  M.reset ();
  Journal.start ();
  Fun.protect
    ~finally:(fun () ->
      Journal.stop ();
      Control.set_enabled was)
    f

let parse_json s =
  match Jsonv.parse s with
  | Ok j -> j
  | Error m -> Alcotest.failf "json parse: %s" m

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- journal basics ---------------- *)

let test_journal_roundtrip () =
  with_journal (fun () ->
      Alcotest.(check bool) "capturing" true (Journal.capturing ());
      Journal.with_provenance "job-a#1" (fun () ->
          Journal.record "unit.event"
            [
              ("n", Journal.Int 3);
              ("x", Journal.Num 2.5);
              ("nan", Journal.Num Float.nan);
              ("inf", Journal.Num Float.infinity);
              ("s", Journal.Str "quote \" backslash \\ newline \n done");
            ]);
      Journal.record "unit.bare" [];
      Alcotest.(check string) "provenance restored" ""
        (Journal.provenance ());
      let events = Journal.events () in
      Alcotest.(check int) "two events" 2 (List.length events);
      let e = List.hd events in
      Alcotest.(check string) "name" "unit.event" e.Journal.name;
      Alcotest.(check string) "provenance" "job-a#1" e.Journal.provenance;
      Alcotest.(check (option (float 0.0))) "int field as num" (Some 3.0)
        (Journal.num_field e "n");
      Alcotest.(check (option string)) "str field"
        (Some "quote \" backslash \\ newline \n done")
        (Journal.str_field e "s");
      (* every line parses back into the same event through the
         rlcstat parser: escaped strings intact, NaN written as null
         and read back as nan, inf as 1e999, ints readable through
         num_field — and re-serialises byte for byte *)
      let lines = Journal.to_lines () in
      let parsed, skipped = Stat.events_of_lines lines in
      Alcotest.(check int) "no line lost" 0 skipped;
      Alcotest.(check (list string)) "lines round-trip byte for byte" lines
        (List.map Journal.line_of_event parsed);
      let p = List.hd parsed in
      Alcotest.(check string) "parsed provenance" "job-a#1"
        p.Journal.provenance;
      Alcotest.(check string) "parsed name" "unit.event" p.Journal.name;
      Alcotest.(check int) "parsed shard" e.Journal.shard p.Journal.shard;
      Alcotest.(check (float 0.0)) "parsed ts" e.Journal.ts_us p.Journal.ts_us;
      Alcotest.(check (option string)) "string field round-trips escaping"
        (Some "quote \" backslash \\ newline \n done")
        (Journal.str_field p "s");
      Alcotest.(check (option (float 0.0))) "int read through num_field"
        (Some 3.0) (Journal.num_field p "n");
      Alcotest.(check (option (float 0.0))) "float field" (Some 2.5)
        (Journal.num_field p "x");
      (match Journal.num_field p "nan" with
      | Some v ->
          Alcotest.(check bool) "null reads back as nan" true (Float.is_nan v)
      | None -> Alcotest.fail "NaN field lost");
      Alcotest.(check (option (float 0.0))) "1e999 reads back as infinity"
        (Some Float.infinity) (Journal.num_field p "inf");
      Alcotest.(check string) "bare event has no provenance" ""
        (List.nth parsed 1).Journal.provenance)

let test_journal_cap () =
  with_journal (fun () ->
      let cap = Journal.cap () in
      Journal.set_cap 8;
      Fun.protect
        ~finally:(fun () -> Journal.set_cap cap)
        (fun () ->
          for i = 1 to 20 do
            Journal.record "cap.test" [ ("i", Journal.Int i) ]
          done;
          Alcotest.(check int) "kept at cap" 8
            (List.length (Journal.events ()));
          Alcotest.(check int) "overflow counted" 12 (Journal.dropped ());
          (* non-positive caps are ignored *)
          Journal.set_cap 0;
          Alcotest.(check int) "cap unchanged by 0" 8 (Journal.cap ())))

let test_journal_off_is_noop () =
  M.reset ();
  let was = Control.enabled () in
  Journal.stop ();
  Journal.record "ghost" [];
  Control.set_enabled was;
  Alcotest.(check bool) "not capturing" false (Journal.capturing ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Journal.events ()))

let test_with_provenance_exception () =
  with_journal (fun () ->
      Journal.set_provenance "outer";
      (try
         Journal.with_provenance "inner" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check string) "restored after raise" "outer"
        (Journal.provenance ());
      Journal.set_provenance "")

(* ---------------- health classification ---------------- *)

let test_health_classify () =
  Alcotest.(check bool) "clean solve" true
    (Health.classify ~growth:10.0 ~rcond:1e-3 () = Health.Ok);
  Alcotest.(check bool) "growth past the repivot limit" true
    (Health.classify ~growth:(Health.growth_limit *. 10.0) ()
    = Health.Degraded);
  Alcotest.(check bool) "rcond near underflow" true
    (Health.classify ~rcond:(Health.rcond_limit /. 10.0) ()
    = Health.Degraded);
  Alcotest.(check bool) "no estimates defaults Ok" true
    (Health.classify () = Health.Ok);
  Alcotest.(check bool) "worst is ordered" true
    (Health.worst Health.Ok Health.Degraded = Health.Degraded
    && Health.worst Health.Failed Health.Degraded = Health.Failed
    && Health.worst Health.Ok Health.Ok = Health.Ok);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("to/of_string round-trip " ^ Health.to_string c)
        true
        (Health.of_string (Health.to_string c) = Some c))
    [ Health.Ok; Health.Degraded; Health.Failed ]

let test_health_observe_and_report () =
  with_journal (fun () ->
      ignore (Health.observe ~kind:"unit" ~growth:1.0 ~rcond:0.5 ());
      ignore
        (Health.observe ~kind:"unit" ~growth:(Health.growth_limit *. 100.0) ());
      Health.failure ~kind:"unit" ~reason:"seeded failure";
      let r = Health.report () in
      Alcotest.(check int) "solves" 3 r.Health.solves;
      Alcotest.(check int) "ok" 1 r.Health.ok;
      Alcotest.(check int) "degraded" 1 r.Health.degraded;
      Alcotest.(check int) "failed" 1 r.Health.failed;
      (match r.Health.worst_growth with
      | Some g -> Alcotest.(check bool) "worst growth recorded" true (g > 1.0)
      | None -> Alcotest.fail "growth histogram empty");
      (* only the not-Ok observations journal an event *)
      let health_events =
        List.filter (fun e -> e.Journal.name = "health") (Journal.events ())
      in
      Alcotest.(check int) "one event per unhealthy solve" 2
        (List.length health_events))

(* ---------------- numerics probes ---------------- *)

(* One rank-1 system per factor kernel: each must raise, be caught as
   the one [Solver.Singular], and journal a [failed] health event of
   its own kind. *)
let test_singular_factor_probes () =
  let module N = Rlc_numerics in
  let ones_real add =
    List.iter (fun (i, j) -> add i j 1.0) [ (0, 0); (0, 1); (1, 0); (1, 1) ]
  in
  let ones_cx add = ones_real (fun i j v -> add i j (N.Cx.of_float v)) in
  let rows =
    [
      ( "lu",
        fun () ->
          let m = N.Matrix.create 2 2 in
          ones_real (N.Matrix.set m);
          ignore (N.Lu.decompose m) );
      ( "clu",
        fun () ->
          let m = N.Cmatrix.create 2 2 in
          ones_cx (N.Cmatrix.set m);
          ignore (N.Clu.decompose m) );
      ( "banded",
        fun () ->
          let s = N.Banded.create_storage ~n:2 ~kl:1 ~ku:1 in
          ones_real (N.Banded.set s);
          ignore (N.Banded.decompose s) );
      ( "cbanded",
        fun () ->
          let s = N.Cbanded.create_storage ~n:2 ~kl:1 ~ku:1 in
          ones_cx (N.Cbanded.set s);
          ignore (N.Cbanded.decompose s) );
      ( "sparse",
        fun () -> ignore (N.Sparse.factor (N.Sparse.of_fill ~n:2 ones_real)) );
      ( "csparse",
        fun () -> ignore (N.Sparse.cfactor (N.Sparse.cof_fill ~n:2 ones_cx)) );
    ]
  in
  List.iter
    (fun (kind, factor) ->
      with_journal (fun () ->
          (match factor () with
          | exception N.Solver.Singular -> ()
          | () -> Alcotest.failf "%s: rank-1 matrix must be singular" kind);
          Alcotest.(check int) (kind ^ ": failure recorded") 1
            (Health.report ()).Health.failed;
          Alcotest.(check bool) (kind ^ ": journaled as failed") true
            (List.exists
               (fun e ->
                 e.Journal.name = "health"
                 && Journal.str_field e "class" = Some "failed"
                 && Journal.str_field e "kind" = Some kind)
               (Journal.events ()))))
    rows

let test_newton_divergence_probe () =
  with_journal (fun () ->
      (* constant residual: the jacobian is singular, Newton stalls *)
      let r =
        Rlc_numerics.Newton.solve_ctx ~max_iter:5 ~ctx:()
          ~f:(fun () _ -> [| 1.0 |])
          ~x0:[| 0.0 |] ()
      in
      Alcotest.(check bool) "did not converge" false r.Rlc_numerics.Newton.converged;
      Alcotest.(check bool) "journaled the divergence" true
        (List.exists
           (fun e -> e.Journal.name = "newton.divergence")
           (Journal.events ())))

(* ---------------- serve provenance chains ---------------- *)

(* The grid from test_serve plus an RL branch in the interior.  The
   branch current unknown puts the branch resistance on the MNA
   diagonal with fixed ±1 incidence entries below it, so shrinking
   [rl] from "10" to "1e-9" — a value-only variant served from the
   healthy deck's cache entry — makes replaying the healthy deck's
   recorded pivot order produce 1e9 multipliers.  That trips the
   sparse refactor growth limit and forces the solver fallback, while
   the fresh threshold-pivoted factor recovers on the ±1 entries and
   the job still succeeds (followed by a symbolic refresh).  [ll] is
   the branch inductance, which the AC variant shrinks as well.
   [dup_source] adds a second identical voltage source in parallel:
   every node keeps its DC path to ground (validation passes), but
   the two constraint rows are exactly dependent, so the factor runs
   out of pivots and raises Singular. *)
let obs_grid ?(rl = "") ?(ll = "1n") ?(dup_source = false) n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "* obs grid\nV1 n_0_0 0 DC 1\n";
  if dup_source then Buffer.add_string b "V2 n_0_0 0 DC 1\n";
  if rl <> "" then Printf.bprintf b "B1 n_12_12 n_12_13 r=%s l=%s\n" rl ll;
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if c + 1 < n then
        Printf.bprintf b "Rh%d_%d n_%d_%d n_%d_%d 10\n" r c r c r (c + 1);
      if r + 1 < n then
        Printf.bprintf b "Rv%d_%d n_%d_%d n_%d_%d 12\n" r c r c (r + 1) c;
      Printf.bprintf b "C%d_%d n_%d_%d 0 0.5p\n" r c r c
    done
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let job id query deck =
  Printf.sprintf "%s %s | %s" id query (Protocol.escape_deck deck)

let serve_lines tag =
  [
    job (tag ^ "-ok") "dc n_5_5" (obs_grid ~rl:"10" 24);
    job (tag ^ "-piv") "dc n_5_5" (obs_grid ~rl:"1e-9" 24);
    job (tag ^ "-sing") "dc n_5_5" (obs_grid ~dup_source:true 24);
  ]

let run_serve ~domains ~journaled tag =
  let was = Control.enabled () in
  M.reset ();
  if journaled then Journal.start ();
  let pool = Pool.create ~domains () in
  let config = { Service.default_config with pool } in
  let svc = Service.create ~config () in
  let results = Service.process_lines svc (serve_lines tag) in
  let events = Journal.events () in
  Journal.stop ();
  Control.set_enabled was;
  (results, svc, events)

let prov_of events ~name ~prefix =
  let hit =
    List.find_opt
      (fun e ->
        e.Journal.name = name
        && String.length e.Journal.provenance >= String.length prefix
        && String.sub e.Journal.provenance 0 (String.length prefix) = prefix)
      events
  in
  match hit with
  | Some e -> e.Journal.provenance
  | None -> Alcotest.failf "no %s event with provenance %s..." name prefix

let names_for events prov =
  List.filter_map
    (fun e ->
      if e.Journal.provenance = prov then Some e.Journal.name else None)
    events

(* The complex twin of the serve chain's repivot job: the healthy
   deck's G + sC analysis replayed on the variant whose branch r and l
   are both shrunk, at 1 Hz, where the branch diagonal r + sl is ~1e-9
   and the recorded pivot order yields ~1e9 multipliers.  The sweep
   engine must fall back to a fresh analysis once, journal it as a
   [csparse] fallback, and return the fresh factor's solution. *)
let test_complex_repivot_fallback () =
  let module N = Rlc_numerics in
  let asm_of ~rl ~ll =
    Assembly.of_netlist
      (Parser.parse_string (obs_grid ~rl ~ll 24)).Parser.netlist
  in
  let healthy = asm_of ~rl:"10" ~ll:"1n" in
  let variant = asm_of ~rl:"1e-9" ~ll:"1f" in
  let s = Ac.s_of_freq 1.0 in
  with_journal (fun () ->
      let reference = Assembly.cengine healthy ~s_ref:s in
      Alcotest.(check bool) "grid plan is sparse" true
        ((Assembly.cengine_plan reference).N.Solver.choice
        = N.Solver.Sparse_lu);
      let engine =
        Assembly.cengine ?symbolic:(Assembly.cengine_symbolic reference)
          variant ~s_ref:s
      in
      let repivots = M.counter "solver.sparse.repivot" in
      let before = M.value repivots in
      let rhs = Array.map N.Cx.of_float (Assembly.b_column variant 0) in
      let x = Assembly.cengine_solve engine ~s ~rhs in
      Alcotest.(check (float 0.0)) "one repivot" 1.0
        (M.value repivots -. before);
      Alcotest.(check bool) "csparse fallback journaled" true
        (List.exists
           (fun e ->
             e.Journal.name = "solver.fallback"
             && Journal.str_field e "kind" = Some "csparse")
           (Journal.events ()));
      let fresh = Assembly.solve_complex variant ~s ~rhs in
      let scale =
        Array.fold_left (fun m v -> Float.max m (N.Cx.norm v)) 0.0 fresh
      in
      Array.iteri
        (fun k v ->
          if N.Cx.norm (N.Cx.( -: ) v fresh.(k)) > 1e-12 *. scale then
            Alcotest.failf "unknown %d differs from the fresh factor" k)
        x)

let check_serve_chain ~domains =
  (* journal state is reset per run, so the same job ids can be
     reused at every domain count — which keeps the result streams
     directly comparable *)
  let tag = "job" in
  let results, svc, events = run_serve ~domains ~journaled:true tag in
  Alcotest.(check int) "three results" 3 (List.length results);
  let r_ok = List.nth results 0
  and r_piv = List.nth results 1
  and r_sing = List.nth results 2 in
  Alcotest.(check bool) "healthy job ok" true (contains r_ok "ok ");
  Alcotest.(check bool) "repivot job recovered to ok" true
    (contains r_piv ("ok " ^ tag ^ "-piv"));
  Alcotest.(check bool) "singular job errs" true
    (contains r_sing ("err " ^ tag ^ "-sing"));
  Alcotest.(check bool) "err carries the health annotation" true
    (contains r_sing "# health: failed");
  (* chain 1: repivot job — cache hit, lifecycle, solver fallback with
     the job's provenance, symbolic refresh *)
  let piv_prov =
    prov_of events ~name:"solver.fallback" ~prefix:(tag ^ "-piv#")
  in
  let piv_names = names_for events piv_prov in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "repivot chain has %s" n)
        true (List.mem n piv_names))
    [ "cache.hit"; "job.start"; "solver.fallback"; "job.end"; "cache.resym" ];
  (match
     List.find_opt
       (fun e ->
         e.Journal.provenance = piv_prov && e.Journal.name = "job.end")
       events
   with
  | Some e ->
      Alcotest.(check (option string)) "repivot job ended ok" (Some "ok")
        (Journal.str_field e "status")
  | None -> Alcotest.fail "no job.end for the repivot job");
  Alcotest.(check int) "one symbolic refresh" 1
    (Service.summary svc).Service.resyms;
  (* chain 2: singular job — cache miss, lifecycle, health failed *)
  let sing_prov = prov_of events ~name:"health" ~prefix:(tag ^ "-sing#") in
  let sing_names = names_for events sing_prov in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "singular chain has %s" n)
        true (List.mem n sing_names))
    [ "cache.miss"; "job.start"; "health"; "job.end" ];
  (match Health.worst_for events ~provenance:sing_prov with
  | Some (Health.Failed, reason) ->
      Alcotest.(check string) "failure reason" "singular pivot" reason
  | _ -> Alcotest.fail "worst_for must classify the singular job failed");
  (* rlcstat rolls the same stream up correctly *)
  let r = Stat.rollup events in
  Alcotest.(check int) "rollup jobs" 3 r.Stat.jobs;
  Alcotest.(check int) "rollup errors" 1 r.Stat.errors;
  Alcotest.(check bool) "rollup fallbacks" true (r.Stat.fallbacks >= 1);
  Alcotest.(check int) "rollup resyms" 1 r.Stat.resyms;
  Alcotest.(check bool) "rollup health failed" true (r.Stat.health_failed >= 1);
  (match r.Stat.kinds with
  | [ k ] ->
      Alcotest.(check string) "one query kind" "dc" k.Stat.kind;
      Alcotest.(check int) "kind count" 3 k.Stat.count;
      Alcotest.(check int) "kind errors" 1 k.Stat.errors;
      (match k.Stat.latency with
      | Some q ->
          Alcotest.(check bool) "quantiles ordered" true
            (q.Stat.p50 <= q.Stat.p90 && q.Stat.p90 <= q.Stat.p99)
      | None -> Alcotest.fail "job.end durations must yield quantiles")
  | l -> Alcotest.failf "expected one kind, got %d" (List.length l));
  results

let strip_annotation line =
  let marker = " # health: " in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then Some i
    else find (i + 1)
  in
  match find 0 with None -> line | Some i -> String.sub line 0 i

let test_serve_chain_1_domain () = ignore (check_serve_chain ~domains:1)

let test_serve_chain_4_domains () =
  let r4 = check_serve_chain ~domains:4 in
  let r1 = check_serve_chain ~domains:1 in
  Alcotest.(check (list string))
    "annotated streams agree across domain counts"
    (List.map strip_annotation r1)
    (List.map strip_annotation r4)

let test_serve_stream_identity () =
  (* journaling must not change any result byte except the err
     annotation, at 1 and 4 domains *)
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "i%d" domains in
      let plain, _, _ = run_serve ~domains ~journaled:false tag in
      let journaled, _, _ = run_serve ~domains ~journaled:true tag in
      List.iter
        (fun l ->
          Alcotest.(check bool) "plain stream has no annotation" false
            (contains l "# health:"))
        plain;
      Alcotest.(check (list string))
        (Printf.sprintf "streams identical modulo annotation (%d domains)"
           domains)
        plain
        (List.map strip_annotation journaled))
    [ 1; 4 ]

(* ---------------- transient waveform identity ---------------- *)

let step_ladder segments =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground
    (Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 20e-12 });
  let far = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12; length = 0.011; segments }
    ~from_node:src ~to_node:far;
  (nl, far)

let waveform ~journaled =
  let was = Control.enabled () in
  M.reset ();
  if journaled then Journal.start ();
  let nl, far = step_ladder 12 in
  let r =
    Transient.simulate nl ~t_end:1e-9 ~dt:1e-12
      ~probes:[ Transient.Node_v far ]
  in
  Journal.stop ();
  Control.set_enabled was;
  Array.to_list
    (Rlc_waveform.Waveform.values (Transient.get r (Transient.Node_v far)))

let test_transient_identity_with_journal () =
  Alcotest.(check (list int64))
    "journaled waveform bit-identical"
    (List.map Int64.bits_of_float (waveform ~journaled:false))
    (List.map Int64.bits_of_float (waveform ~journaled:true))

(* ---------------- spans in the journal ---------------- *)

let test_span_cap () =
  with_journal (fun () ->
      let cap = Journal.cap () in
      Journal.set_cap 4;
      Fun.protect
        ~finally:(fun () -> Journal.set_cap cap)
        (fun () ->
          for _ = 1 to 10 do
            Rlc_instr.Span.with_ "obs.capped" (fun () -> ())
          done;
          Alcotest.(check int) "spans kept at the cap" 4
            (List.length (Journal.events ()));
          Alcotest.(check int) "overflow counted" 6 (Journal.dropped ())))

let test_span_provenance () =
  with_journal (fun () ->
      Journal.with_provenance "job-s#7" (fun () ->
          Rlc_instr.Span.with_ "obs.attributed" (fun () -> ()));
      Rlc_instr.Span.with_ "obs.bare" (fun () -> ());
      let prov name =
        match
          List.find_opt
            (fun e -> Journal.str_field e "name" = Some name)
            (Journal.events ())
        with
        | Some e ->
            Alcotest.(check string) "span event kind" "span" e.Journal.name;
            e.Journal.provenance
        | None -> Alcotest.failf "no span event for %s" name
      in
      Alcotest.(check string) "span inherits the job id" "job-s#7"
        (prov "obs.attributed");
      Alcotest.(check string) "span outside a job has none" ""
        (prov "obs.bare"))

let test_chrome_trace () =
  with_journal (fun () ->
      Rlc_instr.Span.with_ "outer" (fun () ->
          Rlc_instr.Span.with_ "inner" (fun () ->
              ignore (Sys.opaque_identity (Array.make 1000 0.0))));
      Journal.record "not.a.span" [];
      let events = Journal.events () in
      let shard = (List.hd events).Journal.shard in
      let trace = Rlc_instr.Trace.to_string events in
      (* offline rendering from the JSONL is the same bytes *)
      let parsed, _ = Stat.events_of_lines (Journal.to_lines ()) in
      Alcotest.(check string) "offline render is byte-identical" trace
        (Rlc_instr.Trace.to_string parsed);
      let spans =
        match Jsonv.member "traceEvents" (parse_json trace) with
        | Some (Jsonv.List l) ->
            List.filter
              (fun ev -> Jsonv.member "ph" ev = Some (Jsonv.Str "X"))
              l
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      Alcotest.(check int) "only span events render" 2 (List.length spans);
      let num ev k =
        match Option.bind (Jsonv.member k ev) Jsonv.to_float with
        | Some v -> v
        | None -> Alcotest.failf "trace event lacks %s" k
      in
      let find name =
        match
          List.find_opt
            (fun ev -> Jsonv.member "name" ev = Some (Jsonv.Str name))
            spans
        with
        | Some ev -> ev
        | None -> Alcotest.failf "no %s span in the trace" name
      in
      let outer = find "outer" and inner = find "inner" in
      List.iter
        (fun ev ->
          Alcotest.(check (float 0.0)) "tid is the shard" (float_of_int shard)
            (num ev "tid"))
        spans;
      (* ts/dur print at 1 ns resolution: allow that much rounding *)
      let eps = 2e-3 in
      Alcotest.(check bool) "inner starts inside outer" true
        (num inner "ts" >= num outer "ts" -. eps);
      Alcotest.(check bool) "inner ends inside outer" true
        (num inner "ts" +. num inner "dur"
        <= num outer "ts" +. num outer "dur" +. eps))

(* ---------------- snapshot regression diff ---------------- *)

let test_diff_flags_regression () =
  let old_snap =
    parse_json
      {|{"meta": {"date": "yesterday", "git_rev": "abc"},
         "latency": {"p50": 0.010, "p90": 0.020, "p99": 0.100},
         "jobs": 100, "errors": 0}|}
  in
  let new_snap =
    parse_json
      {|{"meta": {"date": "today", "git_rev": "def"},
         "latency": {"p50": 0.010, "p90": 0.021, "p99": 0.125},
         "jobs": 100, "errors": 0}|}
  in
  (* identical snapshots never flag, whatever the threshold *)
  Alcotest.(check int) "self-diff is empty" 0
    (List.length (Stat.diff ~threshold:0.0 old_snap old_snap));
  (* a 25% p99 regression is flagged at the 10% default; the 5% p90
     drift is not *)
  let findings = Stat.diff old_snap new_snap in
  (match
     List.find_opt (fun f -> f.Stat.path = "latency.p99") findings
   with
  | Some f ->
      Alcotest.(check bool) "delta is the relative change" true
        (Float.abs (f.Stat.delta -. 0.25) < 1e-9)
  | None -> Alcotest.fail "25% p99 regression must be flagged");
  Alcotest.(check bool) "5% p90 drift is below threshold" true
    (not (List.exists (fun f -> f.Stat.path = "latency.p90") findings));
  Alcotest.(check bool) "meta churn never flags" true
    (not
       (List.exists
          (fun f -> String.length f.Stat.path >= 4
                    && String.sub f.Stat.path 0 4 = "meta")
          findings));
  (* keys on one side only are ignored *)
  let wider = parse_json {|{"jobs": 100, "extra": 1.0}|} in
  Alcotest.(check int) "new keys are not regressions" 0
    (List.length (Stat.diff old_snap wider |> List.filter (fun f -> f.Stat.path = "extra")))

let test_flatten_paths () =
  let j =
    parse_json {|{"a": 1.0, "b": {"c": [2.0, 3.0]}, "s": "x", "z": null}|}
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "numeric leaves with dot paths"
    [ ("a", 1.0); ("b.c[0]", 2.0); ("b.c[1]", 3.0) ]
    (Stat.flatten j)

let () =
  Alcotest.run "obs"
    [
      ( "journal",
        [
          Alcotest.test_case "record + JSONL round-trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "per-shard cap" `Quick test_journal_cap;
          Alcotest.test_case "off is a no-op" `Quick test_journal_off_is_noop;
          Alcotest.test_case "provenance scoping" `Quick
            test_with_provenance_exception;
        ] );
      ( "health",
        [
          Alcotest.test_case "classify thresholds" `Quick test_health_classify;
          Alcotest.test_case "observe + report" `Quick
            test_health_observe_and_report;
          Alcotest.test_case "singular factor probes" `Quick
            test_singular_factor_probes;
          Alcotest.test_case "complex repivot fallback" `Quick
            test_complex_repivot_fallback;
          Alcotest.test_case "newton divergence probe" `Quick
            test_newton_divergence_probe;
        ] );
      ( "serve chains",
        [
          Alcotest.test_case "provenance chain (1 domain)" `Quick
            test_serve_chain_1_domain;
          Alcotest.test_case "provenance chain (4 domains)" `Quick
            test_serve_chain_4_domains;
          Alcotest.test_case "stream identity modulo annotation" `Quick
            test_serve_stream_identity;
          Alcotest.test_case "transient identity with journal" `Quick
            test_transient_identity_with_journal;
        ] );
      ( "span events",
        [
          Alcotest.test_case "spans past the cap are dropped" `Quick
            test_span_cap;
          Alcotest.test_case "span carries provenance" `Quick
            test_span_provenance;
          Alcotest.test_case "chrome trace renders the journal" `Quick
            test_chrome_trace;
        ] );
      ( "rlcstat diff",
        [
          Alcotest.test_case "flags regressions" `Quick
            test_diff_flags_regression;
          Alcotest.test_case "flatten paths" `Quick test_flatten_paths;
        ] );
    ]
