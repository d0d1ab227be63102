(* The serve layer replay: one job at a time through the public
   functions [Rlc_serve.Service] calls, with the same cache hooks in the
   same order, each call one span.  The two cache levels are owned here:
   an exact-text memo with the service's LRU policy, and a
   [Deck_cache].  The result line must equal the service's. *)

open Rlc_circuit
open Rlc_serve
module S = Spans

type memo_entry = {
  netlist : Netlist.t;
  skey : Netlist.structural_key;
  mutable asm : Assembly.t option;
}

type slot = { entry : memo_entry; mutable last_use : int }

type t = {
  memo : (string, slot) Hashtbl.t;
  memo_cap : int;
  mutable clock : int;
  cache : Deck_cache.t;
}

let create () =
  let d = Service.default_config in
  {
    memo = Hashtbl.create 64;
    memo_cap = d.Service.memo_capacity;
    clock = 0;
    cache = Deck_cache.create ~capacity:d.Service.cache_capacity ();
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let memo_insert t key entry =
  Hashtbl.replace t.memo key { entry; last_use = tick t };
  while Hashtbl.length t.memo > t.memo_cap do
    let victim = ref None in
    Hashtbl.iter
      (fun k s ->
        match !victim with
        | Some (_, best) when best <= s.last_use -> ()
        | _ -> victim := Some (k, s.last_use))
      t.memo;
    Option.iter (fun (k, _) -> Hashtbl.remove t.memo k) !victim
  done

let memo_deck t text =
  let key = S.with_ "service.memo" (fun () -> Digest.string text) in
  match Hashtbl.find_opt t.memo key with
  | Some slot ->
      slot.last_use <- tick t;
      slot.entry
  | None ->
      let netlist =
        S.with_ "parser.parse" (fun () -> (Parser.parse_string text).Parser.netlist)
      in
      let skey = S.with_ "netlist.key" (fun () -> Netlist.structural_key netlist) in
      let m = { netlist; skey; asm = None } in
      memo_insert t key m;
      m

let memo_assembly m plan =
  match m.asm with
  | Some a -> a
  | None ->
      let a =
        match plan with
        | Some plan ->
            S.with_ "assembly.stamp" (fun () ->
                Assembly.of_netlist ~plan ~validate:false m.netlist)
        | None -> S.with_ "assembly.plan" (fun () -> Assembly.of_netlist m.netlist)
      in
      m.asm <- Some a;
      a

let sparse (p : Rlc_numerics.Solver.plan) =
  p.Rlc_numerics.Solver.choice = Rlc_numerics.Solver.Sparse_lu

(* The per-(family, query kind) artifacts, built on first need. *)
let ensure (e : Deck_cache.entry) netlist query asm =
  match query with
  | Protocol.Q_dc _ | Protocol.Q_delay_sens _ ->
      if e.dc_sym = None && sparse e.asm_plan then
        e.dc_sym <-
          S.with_ "solver.analyze" (fun () ->
              Rlc_numerics.Solver.symbolic_of (Assembly.factor_g asm))
  | Protocol.Q_ac { fstart; _ } ->
      if e.ac_sym = None && sparse e.asm_plan then
        e.ac_sym <-
          S.with_ "solver.analyze" (fun () ->
              Assembly.cengine_symbolic
                (Assembly.cengine asm ~s_ref:(Ac.s_of_freq fstart)))
  | Protocol.Q_tran _ | Protocol.Q_delay _ ->
      if e.tran_plan = None then
        e.tran_plan <-
          Some
            (S.with_ "transient.structure_plan" (fun () ->
                 Transient.structure_plan netlist))

let node netlist name =
  let key = String.lowercase_ascii name in
  if key = "0" || key = "gnd" then Netlist.ground
  else
    match Netlist.find_node netlist key with
    | Some n -> n
    | None -> failwith (Printf.sprintf "unknown node %S" name)

let summary w =
  let v = Rlc_waveform.Waveform.values w in
  ( v.(Array.length v - 1),
    Array.fold_left Float.min v.(0) v,
    Array.fold_left Float.max v.(0) v )

let simulate entry netlist n ~dt ~t_end =
  let plan_hint = Option.bind entry (fun (e : Deck_cache.entry) -> e.tran_plan) in
  let config = { Transient.Config.default with plan_hint } in
  let probe = Transient.Node_v n in
  let r =
    S.with_ "transient.sim" (fun () ->
        Transient.simulate ~config netlist ~t_end ~dt ~probes:[ probe ])
  in
  (Transient.get r probe, Transient.steps_taken r)

let param ws tok =
  let i = String.rindex tok ':' in
  let kind =
    match String.lowercase_ascii (String.sub tok (i + 1) (String.length tok - i - 1)) with
    | "r" -> `R
    | "l" -> `L
    | "c" -> `C
    | "m" -> `M
    | k -> failwith ("bad param kind " ^ k)
  in
  Whatif.param ws (String.sub tok 0 i) kind

(* The outcome, plus the fresh DC symbolic when the cached one was
   abandoned by the repivot fallback. *)
let run_query entry asm netlist (query : Protocol.query) =
  let entry_sym f = Option.bind entry f in
  match query with
  | Q_dc { node = name } ->
      let n = node netlist name in
      let symbolic = entry_sym (fun (e : Deck_cache.entry) -> e.dc_sym) in
      let sys = S.with_ "dc.solve" (fun () -> Dc.make ~assembly:asm ?symbolic netlist) in
      let refresh =
        match (symbolic, Dc.g_symbolic sys) with
        | Some cached, (Some fresh as r) when not (cached == fresh) -> r
        | _ -> None
      in
      (Protocol.R_dc (Dc.voltages sys).(n), refresh)
  | Q_ac { node = name; points_per_decade; fstart; fstop } ->
      let n = node netlist name in
      let symbolic = entry_sym (fun (e : Deck_cache.entry) -> e.ac_sym) in
      let freqs = Ac.decade_grid ~points_per_decade ~fstart ~fstop in
      let ce =
        S.with_ "ac.engine" (fun () ->
            Assembly.cengine ?symbolic asm ~s_ref:(Ac.s_of_freq fstart))
      in
      let scratch = Assembly.cengine_scratch ce in
      let rhs = Array.map Rlc_numerics.Cx.of_float (Assembly.b_column asm 0) in
      let x = Array.make asm.Assembly.size Rlc_numerics.Cx.zero in
      let points =
        Array.map
          (fun freq ->
            S.with_ "ac.point" (fun () ->
                Assembly.cengine_solve_into ce scratch ~s:(Ac.s_of_freq freq) ~rhs ~x);
            Ac.point_of ~freq x.(n - 1))
          freqs
      in
      (Protocol.R_ac points, None)
  | Q_tran { node = name; dt; t_end } ->
      let w, steps = simulate entry netlist (node netlist name) ~dt ~t_end in
      let final, vmin, vmax = summary w in
      (Protocol.R_tran { final; vmin; vmax; steps }, None)
  | Q_delay { node = name; fraction; dt; t_end } ->
      let w, _ = simulate entry netlist (node netlist name) ~dt ~t_end in
      let v_final, _, _ = summary w in
      ( Protocol.R_delay
          (S.with_ "measure.delay" (fun () ->
               Rlc_waveform.Measure.threshold_delay w ~fraction ~v_final)),
        None )
  | Q_delay_sens { node = name; fraction; params } ->
      let n = node netlist name in
      let ws = S.with_ "whatif.compile" (fun () -> Whatif.compile ~f:fraction netlist) in
      let wrt = S.with_ "whatif.param" (fun () -> Array.of_list (List.map (param ws) params)) in
      let tau = S.with_ "whatif.evaluate" (fun () -> Whatif.evaluate ws (Whatif.Delay n)) in
      let g = S.with_ "whatif.gradient" (fun () -> Whatif.gradient ws (Whatif.Delay n) ~wrt) in
      let sens = Array.map2 (fun p v -> (p, v)) (Array.of_list params) g in
      (Protocol.R_delay_sens { tau; sens }, None)

(* One job line to its result line.  The generated jobs never fail; a
   replay that raises renders a line no service produces, so the
   comparison with the service's stream flags it. *)
let job t line =
  match S.with_ "protocol.parse" (fun () -> Protocol.parse_job_line line) with
  | Protocol.Blank | Protocol.Malformed _ -> "replay: not a job: " ^ line
  | Protocol.Job job -> (
      try
        let text =
          match job.deck with
          | Protocol.Deck_inline s -> s
          | Protocol.Deck_file _ -> failwith "file decks are not generated"
        in
        let m = memo_deck t text in
        let entry, asm =
          match S.with_ "deck_cache.find" (fun () -> Deck_cache.find_key t.cache m.skey) with
          | Deck_cache.Alias -> (None, memo_assembly m None)
          | Deck_cache.Hit e ->
              let asm = memo_assembly m (Some e.asm_plan) in
              ensure e m.netlist job.query asm;
              (Some e, asm)
          | Deck_cache.Miss ->
              let asm = memo_assembly m None in
              let e =
                {
                  Deck_cache.signature = m.skey.Netlist.signature;
                  asm_plan = asm.Assembly.plan;
                  dc_sym = None;
                  ac_sym = None;
                  tran_plan = None;
                }
              in
              S.with_ "deck_cache.insert" (fun () -> Deck_cache.insert_key t.cache m.skey e);
              ensure e m.netlist job.query asm;
              (Some e, asm)
        in
        let outcome, refresh = run_query entry asm m.netlist job.query in
        (match (refresh, entry) with
        | Some _, Some e -> e.dc_sym <- refresh
        | _ -> ());
        S.with_ "protocol.render" (fun () ->
            Protocol.result_line { Protocol.id = job.id; reply = Ok outcome })
      with e -> "replay: " ^ Printexc.to_string e)
