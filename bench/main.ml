(* Benchmark harness: regenerates every table and figure of the paper
   (Banerjee & Mehrotra, DAC 2001), times the computational kernels
   with Bechamel, and gates the claims behind every BENCH_*.json.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- --fast  -- skip the transient ring sims
     dune exec bench/main.exe -- --no-bechamel  -- skip kernel timings
     dune exec bench/main.exe -- --smoke -- the gated sections at small
                                            sizes (wired into dune
                                            runtest / make bench-smoke)
     dune exec bench/main.exe -- -j N    -- worker domains for the
                                            experiment fan-outs (also
                                            --jobs N / --jobs=N; default
                                            from RLC_JOBS or the machine)
     dune exec bench/main.exe -- --stats -- dump the rlc_instr metrics
                                            table on exit (RLC_STATS=1
                                            works too)
     dune exec bench/main.exe -- --trace FILE.json -- Chrome trace of
                                            all recorded spans (turns
                                            journal capture on)

   Each section is one entry of [sections] (at the bottom): a body
   returns its payload as JSON fields and checks each claim with
   [gate]; the driver prints both, fails on the first missed gate and
   [record]s the section's BENCH file. *)

let fast = Array.exists (fun a -> a = "--fast") Sys.argv
let no_bechamel = Array.exists (fun a -> a = "--no-bechamel") Sys.argv
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let stats = Array.exists (fun a -> a = "--stats") Sys.argv

let prefixed a ~prefix =
  String.length a > String.length prefix
  && String.sub a 0 (String.length prefix) = prefix

let opt_value ~flag =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else
      let a = Sys.argv.(i) in
      if a = flag && i + 1 < Array.length Sys.argv then
        Some Sys.argv.(i + 1)
      else if prefixed a ~prefix:(flag ^ "=") then
        Some
          (String.sub a
             (String.length flag + 1)
             (String.length a - String.length flag - 1))
      else find (i + 1)
  in
  find 1

let trace = opt_value ~flag:"--trace"
let () = Rlc_instr.Control.setup ~stats ?trace ()

let jobs =
  let rec find i =
    if i >= Array.length Sys.argv then Rlc_parallel.Pool.default_domains ()
    else
      let a = Sys.argv.(i) in
      if (a = "-j" || a = "--jobs") && i + 1 < Array.length Sys.argv then
        int_of_string Sys.argv.(i + 1)
      else if prefixed a ~prefix:"--jobs=" then
        int_of_string (String.sub a 7 (String.length a - 7))
      else find (i + 1)
  in
  find 1

let pool = Rlc_parallel.Pool.create ~domains:jobs ()

(* ------------------------------------------------------------------ *)
(* Paper experiments                                                    *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  Rlc_experiments.Table1.print (Rlc_experiments.Table1.compute ~pool ());
  []

let run_fig2 () =
  Rlc_experiments.Fig2.print (Rlc_experiments.Fig2.compute ~pool ());
  []

let run_sweep_figs () =
  let s250 = Rlc_experiments.Sweeps.run ~pool Rlc_tech.Presets.node_250nm in
  let s100 = Rlc_experiments.Sweeps.run ~pool Rlc_tech.Presets.node_100nm in
  let s100c =
    Rlc_experiments.Sweeps.run ~pool
      Rlc_tech.Presets.node_100nm_250nm_dielectric
  in
  Rlc_experiments.Sweeps.print_fig4 [ s250; s100 ];
  print_newline ();
  Rlc_experiments.Sweeps.print_fig5 [ s250; s100 ];
  print_newline ();
  Rlc_experiments.Sweeps.print_fig6 [ s250; s100 ];
  print_newline ();
  Rlc_experiments.Sweeps.print_fig7 [ s250; s100; s100c ];
  print_newline ();
  Rlc_experiments.Sweeps.print_fig8 [ s250; s100 ];
  print_newline ();
  Rlc_experiments.Sweeps.print_baselines [ s100 ];
  []

let run_ring_waveforms () =
  let cases =
    Rlc_experiments.Ring_figs.waveforms ~pool ~l_values:[ 1.8e-6; 2.2e-6 ] ()
  in
  List.iter
    (fun c -> Rlc_experiments.Ring_figs.print_waveform_case c)
    cases;
  []

let run_ring_sweeps () =
  let l_values = Rlc_experiments.Ring_figs.default_l_values () in
  List.iter
    (fun node ->
      let points =
        Rlc_experiments.Ring_figs.period_sweep ~pool node ~l_values
      in
      Rlc_experiments.Ring_figs.print_fig11
        ~node_name:node.Rlc_tech.Node.name points;
      print_newline ();
      if String.equal node.Rlc_tech.Node.name "100nm" then
        Rlc_experiments.Ring_figs.print_fig12
          ~node_name:node.Rlc_tech.Node.name points)
    [ Rlc_tech.Presets.node_100nm; Rlc_tech.Presets.node_250nm ];
  []

module J = Rlc_instr.Jsonv

let int n = J.Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Gates and the one record path                                       *)
(* ------------------------------------------------------------------ *)

(* The running section's gates, newest first, and the message of the
   first one it missed. *)
let gates : (string * J.t) list ref = ref []
let missed : string option ref = ref None

(* Every section starts from a zeroed registry, so the "metrics" block
   of the BENCH file it writes holds that section's work alone (and a
   --stats/--trace dump at exit covers the last section). *)
let section title =
  Rlc_instr.Metrics.reset ();
  gates := [];
  missed := None;
  Rlc_report.Report.section title

type bound =
  | At_least of float
  | At_most of float
  | Below of float  (** strictly *)
  | Exactly of float

(* [gate name bound value fmt ...] checks [value] and records {value,
   bound, margin} under [name] in the section's "gates".  The margin is
   value/bound for a floor, bound/value for a ceiling (infinity at 0)
   and infinity or 0 for an exact gate: above 1 passes with room, 1
   sits on the bound.  The driver raises the first miss's message. *)
let gate name bound value fmt =
  Printf.ksprintf
    (fun msg ->
      let pass, b, margin =
        match bound with
        | At_least b -> (value >= b, b, value /. b)
        | At_most b ->
            (value <= b, b, if value = 0.0 then infinity else b /. value)
        | Below b -> (value < b, b, b /. value)
        | Exactly b -> (value = b, b, if value = b then infinity else 0.0)
      in
      gates :=
        ( name,
          J.Obj
            [ ("value", J.Num value); ("bound", J.Num b);
              ("margin", J.Num margin) ] )
        :: !gates;
      if (not pass) && !missed = None then missed := Some msg)
    fmt

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
      | exception _ -> "unknown")

let iso_date_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* One BENCH_*.json: "meta" (environment provenance), "metrics" (the
   registry at write time), the section's fields and its "gates", one
   top-level field per line, and one element per line of a list or of
   an object of objects. *)
let record path fields =
  let meta =
    J.Obj
      [
        ("ocaml", J.Str Sys.ocaml_version);
        ("jobs", int jobs);
        ( "rlc_jobs_env",
          Option.fold ~none:J.Null
            ~some:(fun v -> J.Str v)
            (Sys.getenv_opt "RLC_JOBS") );
        ("recommended_domains", int (Domain.recommended_domain_count ()));
        ("git_rev", J.Str (git_rev ()));
        ("date", J.Str (iso_date_utc ()));
      ]
  in
  let lines o c items =
    o ^ "\n    " ^ String.concat ",\n    " items ^ "\n  " ^ c
  in
  let is_obj = function _, J.Obj _ -> true | _ -> false in
  let layout = function
    | J.List (_ :: _ as vs) -> lines "[" "]" (List.map J.encode vs)
    | J.Obj (_ :: _ as kvs) when List.for_all is_obj kvs ->
        lines "{" "}"
          (List.map (fun (k, v) -> J.encode (J.Str k) ^ ": " ^ J.encode v) kvs)
    | v -> J.encode v
  in
  let fields =
    (("meta", meta) :: ("metrics", Rlc_instr.Metrics.to_json ()) :: fields)
    @ [ ("gates", J.Obj (List.rev !gates)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s  %s: %s"
            (if i = 0 then "" else ",\n")
            (J.encode (J.Str k)) (layout v))
        fields;
      output_string oc "\n}\n");
  Printf.printf "\nrecorded baseline in %s\n" path

(* Console rendering of a payload: integers plainly, other numbers to
   four significant digits. *)
let rec cell = function
  | J.Num v when Float.is_integer v && Float.abs v < 1e15 ->
      Printf.sprintf "%.0f" v
  | J.Num v -> Printf.sprintf "%.4g" v
  | J.Str s -> s
  | J.Bool b -> string_of_bool b
  | J.Null -> "-"
  | J.List vs -> String.concat "," (List.map cell vs)
  | J.Obj _ as o -> J.encode o

(* Rows of one shape, headed by their keys. *)
let print_table title = function
  | J.Obj kvs :: _ as rows ->
      let t =
        Rlc_report.Table.create ~title ~columns:(List.map fst kvs)
      in
      List.iter
        (function
          | J.Obj kvs ->
              Rlc_report.Table.add_row t (List.map (fun (_, v) -> cell v) kvs)
          | _ -> ())
        rows;
      Rlc_report.Table.print t
  | _ -> ()

(* A section's scalars as one row, then each object or list of rows
   as its own table, then the gates. *)
let show fields =
  let tables, scalars =
    List.partition
      (fun (_, v) ->
        match v with J.Obj _ | J.List (J.Obj _ :: _) -> true | _ -> false)
      (List.remove_assoc "description" fields)
  in
  if scalars <> [] then print_table "results" [ J.Obj scalars ];
  List.iter
    (fun (k, v) ->
      print_table k (match v with J.List rows -> rows | v -> [ v ]))
    tables;
  print_table "gates"
    (List.rev_map
       (fun (name, g) ->
         match g with J.Obj kvs -> J.Obj (("gate", J.Str name) :: kvs) | g -> g)
       !gates)

(* ------------------------------------------------------------------ *)
(* Timing and counting                                                  *)
(* ------------------------------------------------------------------ *)

(* Wall-clock timing rides on the instrumentation library's
   monotonic-origin timers: always-on, never gated by RLC_STATS. *)
let wall = Rlc_instr.Timer.time

(* Process CPU seconds (user + system).  For single-domain work it is
   wall time without the gaps where another process held the core. *)
let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* The shortest of [reps] runs: a single sample of a millisecond-scale
   job is at the mercy of scheduler noise. *)
let wall_best reps f =
  let result, t0 = wall f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = wall f in
    if t < !best then best := t
  done;
  (result, !best)

let bit_identical a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(* [f ()] and how far it moved counter [name] (e.g. the engine advances
   it made), read from the metrics registry with recording on — counted
   by the engine's own path, not derived from the caller's bookkeeping.
   Call it outside any pool fan-out: the registry sums every domain's
   records. *)
let counting name f =
  let c = Rlc_instr.Metrics.counter name in
  let was = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Rlc_instr.Control.set_enabled was)
    (fun () ->
      let before = Rlc_instr.Metrics.value c in
      let r = f () in
      (r, int_of_float (Rlc_instr.Metrics.value c -. before)))

(* ------------------------------------------------------------------ *)
(* Ladder scaling: dense vs banded transient backend                   *)
(* ------------------------------------------------------------------ *)

let ladder_spec segments =
  { Rlc_circuit.Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12;
    length = 0.011; segments }

(* One step-driven RLC ladder, simulated to 1 ns with both fixed-step
   backends (identical trajectories, wall-clock compared): the largest
   final-voltage difference and the row. *)
let ladder_case ~segments ~steps =
  let open Rlc_circuit in
  let nl, _src, far = Ladder.driven_line (ladder_spec segments) in
  let t_end = 1e-9 in
  let dt = t_end /. float_of_int steps in
  let probes = [ Transient.Node_v far ] in
  let run backend () =
    Transient.simulate
      ~config:
        {
          Transient.Config.default with
          backend;
          record_every = Int.max 1 (steps / 20);
        }
      nl ~t_end ~dt ~probes
  in
  let rd, dense_s = wall (run Transient.Dense) in
  let rb, banded_s = wall (run Transient.Banded) in
  let vd = Transient.final_voltages rd and vb = Transient.final_voltages rb in
  let max_diff = ref 0.0 in
  Array.iteri
    (fun i v -> max_diff := Float.max !max_diff (Float.abs (v -. vb.(i))))
    vd;
  ( !max_diff,
    J.Obj
      [
        ("segments", int segments);
        ("unknowns", int (Netlist.node_count nl) (* nodes-1 + 1 vsource *));
        ("steps", int steps);
        ("dense_s", J.Num dense_s);
        ("banded_s", J.Num banded_s);
        ("speedup", J.Num (dense_s /. banded_s));
        ("max_abs_diff_v", J.Num !max_diff);
      ] )

(* The same ladder simulated adaptively with the automatic backend:
   timed once, then re-run with recording on to count advances. *)
let adaptive_case ~segments =
  let open Rlc_circuit in
  let nl, _src, far = Ladder.driven_line (ladder_spec segments) in
  let t_end = 1e-9 in
  let run () =
    Transient.simulate_adaptive
      ~config:{ Transient.Config.default with rtol = 1e-4 }
      nl ~t_end ~dt_max:(t_end /. 64.0) ~probes:[ Transient.Node_v far ]
  in
  let ra, auto_s = wall run in
  let _, advances = counting "transient.advances" run in
  let s = Transient.stats ra in
  let accepted = s.Transient.Stats.steps in
  let rejected = s.Transient.Stats.rejected_steps in
  J.Obj
    [
      ("segments", int segments);
      ("unknowns", int (Netlist.node_count nl));
      ("accepted_steps", int accepted);
      ("rejected_steps", int rejected);
      ( "rejected_frac",
        J.Num (float_of_int rejected /. float_of_int (accepted + rejected)) );
      ("advances", int advances);
      ("lu_factorizations", int s.Transient.Stats.lu_factorizations);
      ("auto_s", J.Num auto_s);
    ]

let run_ladder_scaling () =
  let sizes, steps =
    if smoke then ([ 10; 24 ], 200) else ([ 50; 200; 800 ], 1000)
  in
  (* sizes are independent cases; when several worker domains run them
     concurrently the per-case wall clocks contend, but the dense/banded
     ratio and the trajectory cross-check stay meaningful *)
  let fixed =
    Rlc_parallel.Pool.map_list pool
      (fun segments -> ladder_case ~segments ~steps)
      sizes
  in
  List.iter2
    (fun segments (max_diff, _) ->
      gate
        (Printf.sprintf "dense_banded_agree_%d" segments)
        (At_most 1e-9) max_diff
        "ladder scaling: dense and banded backends disagree")
    sizes fixed;
  (* sequential: the advance count reads the process-wide registry *)
  let adaptive = List.map (fun segments -> adaptive_case ~segments) sizes in
  [
    ( "description",
      J.Str
        "Dense vs banded MNA backend on step-driven RLC ladders \
         (Transient.simulate, trapezoidal; adaptive rtol=1e-4, auto \
         backend, one advance per attempted step). Times in seconds." );
    ("fixed_step", J.List (List.map snd fixed));
    ("adaptive", J.List adaptive);
  ]

(* Adaptive gate: a 24-segment, L-dominated ladder driven by a 200 ps
   ramp, against a fixed-step trapezoidal reference at dt_max/256 that
   is trusted only when the dt_max/128 run stays within 0.5% of swing.
   Fails on more than one advance per attempted step or on an error
   above 2% of swing. *)
let run_adaptive_gate () =
  let open Rlc_circuit in
  let nl, _src, far = Ladder.driven_line ~t_rise:200e-12 (ladder_spec 24) in
  let probe = Transient.Node_v far in
  let t_end = 3e-9 in
  let dt_max = t_end /. 32.0 in
  let fixed dt =
    Transient.get (Transient.simulate nl ~t_end ~dt ~probes:[ probe ]) probe
  in
  let deviation ~reference w =
    Rlc_waveform.Measure.max_deviation_pct ~reference w
  in
  let reference = fixed (dt_max /. 256.0) in
  let moved = deviation ~reference (fixed (dt_max /. 128.0)) in
  let r, advances =
    counting "transient.advances" (fun () ->
        Transient.simulate_adaptive nl ~t_end ~dt_max ~probes:[ probe ])
  in
  let s = Transient.stats r in
  let attempts = s.Transient.Stats.steps + s.Transient.Stats.rejected_steps in
  let err = deviation ~reference (Transient.get r probe) in
  gate "reference_moved_pct" (Below 0.5) moved
    "adaptive gate: reference moved %.3f%% (trust: 0.5%%)" moved;
  gate "advances_per_attempt" (At_most (float_of_int attempts))
    (float_of_int advances) "adaptive gate: %d advances for %d attempted steps"
    advances attempts;
  gate "error_pct_of_swing" (At_most 2.0) err
    "adaptive gate: error %.3f%% of swing (gate: 2%%)" err;
  [
    ("accepted_steps", int s.Transient.Stats.steps);
    ("rejected_steps", int s.Transient.Stats.rejected_steps);
    ("advances", int advances);
    ("error_pct_of_swing", J.Num err);
    ("reference_moved_pct", J.Num moved);
  ]

(* The paper's (h, k) optimization is Newton-first with an analytic
   Jacobian: over an 8-point sweep of each preset every optimum must
   come from Newton, so no fallback is counted and Nelder-Mead never
   iterates, and one [optimize] may cost at most [max_solves_per_opt]
   delay solves ([roots.calls]): about one seeded solve per Newton
   point, where a finite-difference Jacobian cost about 35. *)
let max_solves_per_opt = 14.0

let run_optimize_gate () =
  let points = 8 in
  let sweep () =
    List.iter
      (fun node ->
        let l_max = node.Rlc_tech.Node.l_max in
        ignore (Rlc_core.Rlc_opt.sweep ~n:points node ~l_max))
      Rlc_tech.Presets.all
  in
  let opts = points * List.length Rlc_tech.Presets.all in
  let ((((), nm_iterations), iterations), solves), fallbacks =
    counting "rlc_opt.fallbacks" (fun () ->
        counting "roots.calls" (fun () ->
            counting "newton.iterations" (fun () ->
                counting "nelder_mead.iterations" sweep)))
  in
  let _, best_s = wall_best 5 sweep in
  let per n = float_of_int n /. float_of_int opts in
  List.iter
    (fun (name, n) ->
      gate name (At_most 0.0) (float_of_int n)
        "optimization gate: %d fallbacks, %d Nelder-Mead iterations" fallbacks
        nm_iterations)
    [ ("fallbacks", fallbacks); ("nelder_mead_iterations", nm_iterations) ];
  gate "delay_solves_per_opt" (At_most max_solves_per_opt) (per solves)
    "optimization gate: %.2f delay solves per optimization (gate: %g)"
    (per solves) max_solves_per_opt;
  [
    ( "description",
      J.Str
        (Printf.sprintf
           "Rlc_opt.optimize, the paper's Newton (h, k) optimization with an \
            analytic Jacobian, over %d-point Rlc_opt.sweep runs of each \
            preset.  Per optimization: wall time (best of 5 sweeps, metrics \
            recording off), delay solves (roots.calls), Newton iterations \
            and Nelder-Mead fallbacks.  Gates: 0 fallbacks, 0 Nelder-Mead \
            iterations, at most %g delay solves."
           points max_solves_per_opt) );
    ( "workload",
      J.Obj
        [
          ( "presets",
            J.List
              (List.map
                 (fun n -> J.Str n.Rlc_tech.Node.name)
                 Rlc_tech.Presets.all) );
          ("points_per_preset", int points);
          ("optimizations", int opts);
        ] );
    ( "per_optimize",
      J.Obj
        [
          ("us", J.Num (best_s /. float_of_int opts *. 1e6));
          ("delay_solves", J.Num (per solves));
          ("newton_iterations", J.Num (per iterations));
          ("fallbacks", J.Num (per fallbacks));
        ] );
  ]

(* ------------------------------------------------------------------ *)
(* AC: dense-complex vs complex-banded per-frequency solves            *)
(* ------------------------------------------------------------------ *)

(* One driven RLC ladder, swept over three decades: every frequency
   point through Assembly.solve_complex, once forced dense
   (the historical O(n^3) path) and once under the shared plan
   (complex banded in RCM order, O(n.b^2)).  The dense side only gets
   a handful of points at the larger sizes -- a single 1603-unknown
   dense complex LU costs more than the entire banded sweep. *)
let ac_case (segments, dense_points, banded_points) =
  let open Rlc_circuit in
  let open Rlc_numerics in
  let nl, _src, far = Ladder.driven_line (ladder_spec segments) in
  let asm = Assembly.of_netlist nl in
  let k = Assembly.probe ~ctx:"ac_case" asm far in
  let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
  let freqs = Ac.decade_grid ~points_per_decade:7 ~fstart:1e7 ~fstop:1e10 in
  let point backend f =
    (Assembly.solve_complex ~backend asm ~s:(Ac.s_of_freq f) ~rhs).(k)
  in
  let take k = Array.sub freqs 0 (Int.min k (Array.length freqs)) in
  let dense_fs = take dense_points and banded_fs = take banded_points in
  let hd, dense_t =
    wall (fun () -> Array.map (point Solver.Dense) dense_fs)
  in
  let hb, banded_t =
    wall (fun () -> Array.map (point Solver.Auto) banded_fs)
  in
  let max_dev = ref 0.0 in
  Array.iteri
    (fun i h -> max_dev := Float.max !max_dev (Cx.norm (Cx.( -: ) h hb.(i))))
    hd;
  let plan = asm.Assembly.plan in
  let dense_per = dense_t /. float_of_int (Array.length dense_fs) in
  let banded_per = banded_t /. float_of_int (Array.length banded_fs) in
  let speedup = dense_per /. banded_per in
  gate
    (Printf.sprintf "dense_banded_agree_%d" segments)
    (At_most 1e-9) !max_dev
    "AC bench: dense and banded transfer functions differ by %.3e at %d \
     segments (> 1e-9)"
    !max_dev segments;
  (* the algorithmic gate: at the large sizes the banded path must be
     at least 10x cheaper per point than the dense complex LU *)
  if segments >= 400 then
    gate
      (Printf.sprintf "speedup_%d" segments)
      (At_least 10.0) speedup
      "AC bench: %.1fx per-point speedup at %d segments below the 10x target"
      speedup segments;
  J.Obj
    [
      ("segments", int segments);
      ("unknowns", int asm.Assembly.size);
      (* kl + ku + 1 under the shared plan's RCM ordering *)
      ("band", int (plan.Solver.kl + plan.Solver.ku + 1));
      ("dense_points", int (Array.length dense_fs));
      ("banded_points", int (Array.length banded_fs));
      ("dense_per_point_s", J.Num dense_per);
      ("banded_per_point_s", J.Num banded_per);
      ("speedup", J.Num speedup);
      ("max_abs_dev_H", J.Num !max_dev);
    ]

let run_ac_bench () =
  let cases =
    if smoke then [ (24, 8, 8); (64, 8, 8) ]
    else [ (100, 6, 22); (400, 3, 22); (800, 1, 22) ]
  in
  [
    ( "description",
      J.Str
        "Per-frequency-point cost of the AC path on step-driven RLC \
         ladders (Assembly.solve_complex on the sparse stamp IR, three \
         decades at 7 points/decade): dense complex LU vs the shared \
         plan's complex banded LU in RCM order. Transfer functions \
         compared at every dense-timed point; times in seconds per point."
    );
    ("points", J.List (List.map ac_case cases));
  ]

(* ------------------------------------------------------------------ *)
(* Sparse backend: ladder-vs-grid factor matrix + sweep-reuse gates    *)
(* ------------------------------------------------------------------ *)

(* Real G-system of a netlist under each forced backend.  The G matrix
   alone (mesh conductances + source incidence rows) is exactly what
   the DC path factors, and it is available for ladders and grids
   alike.  Returns the size, the measured dense factor time (-1 when
   not run) and the row, once given the dense time to report. *)
let sparse_case ~name ~reps ~with_dense (asm : Rlc_circuit.Assembly.t) =
  let open Rlc_numerics in
  let open Rlc_circuit in
  let fill = Assembly.Coo.iter asm.Assembly.g in
  let n = asm.Assembly.size in
  let plan_of backend = Solver.plan ~backend (Assembly.adjacency asm) in
  let banded_plan = plan_of Solver.Banded in
  let sparse_plan = plan_of Solver.Sparse in
  let b = Array.init n (fun i -> Float.sin (float_of_int (i + 1))) in
  let solve plan f = Solver.solve plan f b in
  (* sparse: fresh analysis, then value-only refactors through the
     recorded symbolic -- the per-point cost of sweeps and restamps *)
  let fs, sparse_analyze_s =
    wall_best reps (fun () -> Solver.factor sparse_plan ~fill)
  in
  let sym = Solver.symbolic_of fs in
  let _, sparse_refactor_s =
    wall_best reps (fun () -> Solver.factor ?symbolic:sym sparse_plan ~fill)
  in
  let fb, banded_factor_s =
    wall_best reps (fun () -> Solver.factor banded_plan ~fill)
  in
  let x_sparse = solve sparse_plan fs in
  let x_banded = solve banded_plan fb in
  let dev a bb =
    let m = ref 0.0 in
    Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. bb.(i)))) a;
    !m
  in
  let dense_factor_s, max_dev =
    if with_dense then begin
      let dense_plan = plan_of Solver.Dense in
      let fd, t = wall_best reps (fun () -> Solver.factor dense_plan ~fill) in
      (t, dev x_sparse (solve dense_plan fd))
    end
    else (-1.0, dev x_sparse x_banded)
  in
  gate (name ^ "_oracle_dev") (At_most 1e-9) max_dev
    "sparse bench: %s deviates by %.3e from its oracle (> 1e-9)" name max_dev;
  let lu_nnz =
    Option.value ~default:0.0
      (Rlc_instr.Metrics.gauge_value
         (Rlc_instr.Metrics.gauge "solver.sparse.lu_nnz"))
  in
  let row dense_extrapolated_s =
    J.Obj
      [
        ("case", J.Str name);
        ("unknowns", int n);
        ("nnz", int (Assembly.Coo.nnz asm.Assembly.g));
        ( "choice",
          J.Str
            (match asm.Assembly.plan.Solver.choice with
            | Solver.Sparse_lu -> "sparse"
            | Solver.Banded_lu -> "banded"
            | Solver.Dense_lu -> "dense") );
        (* RCM bandwidth (banded storage width) *)
        ("band", int (banded_plan.Solver.kl + banded_plan.Solver.ku + 1));
        (* L+U fill of the sparse factor *)
        ("lu_nnz", J.Num lu_nnz);
        ("dense_factor_s", J.Num dense_factor_s);
        ("dense_extrapolated_s", J.Num dense_extrapolated_s);
        ("banded_factor_s", J.Num banded_factor_s);
        ("sparse_analyze_s", J.Num sparse_analyze_s);
        ("sparse_refactor_s", J.Num sparse_refactor_s);
        ("max_abs_dev", J.Num max_dev);
      ]
  in
  (n, dense_factor_s, row)

let ladder_asm segments =
  let nl, _src, _far = Rlc_circuit.Ladder.driven_line (ladder_spec segments) in
  Rlc_circuit.Assembly.of_netlist nl

let grid_pdn size =
  Rlc_circuit.Pdn.build (Rlc_circuit.Pdn.rc_grid ~rows:size ~cols:size ())

(* One symbolic analysis for a whole AC sweep, checked through the
   instrumentation counters: the engine analyses once at the reference
   frequency, then every sweep point (the reference one included)
   replays it -- 1 analyze + points refactors, zero repivots. *)
let sparse_sweep_reuse pdn =
  let open Rlc_circuit in
  let points = 16 in
  let freqs =
    Ac.decade_grid ~points_per_decade:5 ~fstart:1e6 ~fstop:1e9
  in
  let freqs = Array.sub freqs 0 (Int.min points (Array.length freqs)) in
  let c_analyze = Rlc_instr.Metrics.counter "solver.sparse.canalyze" in
  let c_refactor = Rlc_instr.Metrics.counter "solver.sparse.crefactor" in
  let c_repivot = Rlc_instr.Metrics.counter "solver.sparse.repivot" in
  let v c = int_of_float (Rlc_instr.Metrics.value c) in
  let a0 = v c_analyze and r0 = v c_refactor and p0 = v c_repivot in
  let at =
    match pdn.Pdn.spec.Pdn.loads with
    | (r, c, _) :: _ -> (r, c)
    | [] -> failwith "sparse bench: PDN without a load"
  in
  ignore (Pdn.impedance pdn ~at ~freqs);
  let points = Array.length freqs in
  let canalyze = v c_analyze - a0 in
  let crefactor = v c_refactor - r0 in
  let repivot = v c_repivot - p0 in
  List.iter
    (fun (name, n, expected) ->
      gate name (Exactly (float_of_int expected)) (float_of_int n)
        "sparse bench: AC sweep did not reuse one symbolic analysis \
         (analyze %d, refactor %d over %d points, repivot %d)"
        canalyze crefactor points repivot)
    [
      ("sweep_canalyze", canalyze, 1);
      ("sweep_crefactor", crefactor, points);
      ("sweep_repivot", repivot, 0);
    ];
  J.Obj
    [
      ("points", int points);
      ("canalyze", int canalyze);
      ("crefactor", int crefactor);
      ("repivot", int repivot);
    ]

let run_sparse_bench () =
  let gate_size = 100 in
  (* the lu_nnz gauge and the reuse counters only move while the
     instrumentation records; restore the caller's choice after *)
  let was_recording = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  let reps = if smoke then 2 else 3 in
  let cases =
    [
      ("ladder-200", ladder_asm 200, true);
      ("ladder-800", ladder_asm 800, false);
      ("grid-24", (grid_pdn 24).Rlc_circuit.Pdn.asm, true);
      (* the dense kernel already needs seconds at n ~ 1000; the smoke
         run extrapolates from grid-24 instead of measuring it *)
      ("grid-32", (grid_pdn 32).Rlc_circuit.Pdn.asm, not smoke);
      ( Printf.sprintf "grid-%d" gate_size,
        (grid_pdn gate_size).Rlc_circuit.Pdn.asm,
        false );
    ]
  in
  let measured =
    List.map
      (fun (name, asm, with_dense) -> sparse_case ~name ~reps ~with_dense asm)
      cases
  in
  (* unmeasured dense costs scale the last measured one by (n'/n)^3 *)
  let dense_ref =
    List.fold_left
      (fun acc (n, d, _) -> if d > 0.0 then Some (n, d) else acc)
      None measured
  in
  let rows =
    List.map
      (fun (n, d, row) ->
        row
          (match dense_ref with
          | _ when d >= 0.0 -> d
          | Some (n0, d0) ->
              let q = float_of_int n /. float_of_int n0 in
              d0 *. (q *. q *. q)
          | None -> 0.0))
      measured
  in
  let field name key =
    let row = List.find (fun r -> J.member "case" r = Some (J.Str name)) rows in
    Option.get (J.member key row)
  in
  let num name key = Option.get (J.to_float (field name key)) in
  gate "grid_32_sparse" (Exactly 1.0)
    (Bool.to_float (field "grid-32" "choice" = J.Str "sparse"))
    "sparse bench: Auto sends the 32x32 grid to the banded kernel";
  gate "ladder_200_banded" (Exactly 1.0)
    (Bool.to_float (field "ladder-200" "choice" = J.Str "banded"))
    "sparse bench: Auto no longer keeps ladders banded";
  let g = Printf.sprintf "grid-%d" gate_size in
  let unknowns = int_of_float (num g "unknowns") in
  if unknowns >= 10_000 || smoke then begin
    let analyze = num g "sparse_analyze_s" in
    let dense = num g "dense_extrapolated_s" in
    let refactor = num g "sparse_refactor_s" in
    let banded = num g "banded_factor_s" in
    gate "analyze_vs_dense" (At_least 10.0) (dense /. analyze)
      "sparse bench: at %d unknowns sparse analyze (%.4f s) is not 10x under \
       the dense cost (%.4f s)"
      unknowns analyze dense;
    gate "refactor_vs_banded" (At_least 2.0) (banded /. refactor)
      "sparse bench: at %d unknowns sparse refactor (%.4f s) is not 2x under \
       the banded factor (%.4f s)"
      unknowns refactor banded
  end;
  let reuse = sparse_sweep_reuse (grid_pdn gate_size) in
  Rlc_instr.Control.set_enabled was_recording;
  [
    ( "description",
      J.Str
        "General sparse LU vs banded vs dense on the real G-systems of RLC \
         ladders and PDN grids (Solver.factor under forced backends; \
         seconds per factorisation, best of several). dense_factor_s is -1 \
         where the dense kernel was not run; dense_extrapolated_s then \
         scales the largest measured dense time by (n'/n)^3. choice is what \
         the Auto plan picks; sweep_reuse counts symbolic reuse across one \
         16-point AC impedance scan." );
    ("cases", J.List rows);
    ("sweep_reuse", reuse);
  ]

(* ------------------------------------------------------------------ *)
(* MOR: PRIMA reduced model vs full banded transient                   *)
(* ------------------------------------------------------------------ *)

(* An RC-dominated global wire: the paper's r and c with a smaller
   inductance per length over a 5 cm span, driven through 100 ohm.
   Diffusive responses are what a low-order rational model captures
   tightly; a low-loss line's sharp wavefront is not an order-10
   story. *)
let run_mor_bench () =
  let open Rlc_circuit in
  let segments = 800 and order = 10 in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource ~name:"vin" nl src Netlist.ground (Stimulus.Dc 1.0);
  let inp = Netlist.fresh_node nl in
  Netlist.add_resistor nl src inp 100.0;
  Netlist.add_capacitor nl inp Netlist.ground 15e-15;
  let far = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 0.1e-6; c = 123.33e-12; length = 0.05; segments }
    ~from_node:inp ~to_node:far;
  Netlist.add_capacitor nl far Netlist.ground 50e-15;
  let asm = Assembly.of_netlist nl in
  let reduce () = Rlc_mor.Prima.reduce ~order asm ~node:far in
  let model, reduce_s = wall reduce in
  (* the Krylov work one reduction does, counted on a separate run and
     then dropped so the "metrics" block stays the uninstrumented work *)
  let (_, vectors), moments =
    counting "prima.moments" (fun () -> counting "arnoldi.vectors" reduce)
  in
  Rlc_instr.Metrics.reset ();
  let t_end = 8e-9 and dt = 8e-12 in
  let probes = [ Transient.Node_v far ] in
  let simulate () =
    Transient.simulate
      ~config:{ Transient.Config.default with backend = Transient.Banded }
      nl ~t_end ~dt ~probes
  in
  let w = Transient.get (simulate ()) (Transient.Node_v far) in
  let times = Rlc_waveform.Waveform.times w in
  let values = Rlc_waveform.Waveform.values w in
  let eval () = Array.map (Rlc_mor.Prima.step_eval model) times in
  let reduced = eval () in
  (* the 50x speedup gate: best of 5 serial runs of each side, in CPU
     time and interleaved, so neither a preemption nor a burst of load
     lands on one side alone; the pooled fan-out must reproduce the
     serial evaluation bit for bit *)
  let transient_s = ref infinity and eval_s = ref infinity in
  for _ = 1 to 5 do
    transient_s := Float.min !transient_s (snd (cpu simulate));
    eval_s := Float.min !eval_s (snd (cpu eval))
  done;
  let transient_s = !transient_s and eval_s = !eval_s in
  let reduced_pooled =
    Rlc_parallel.Pool.map pool (Rlc_mor.Prima.step_eval model) times
  in
  let lo, hi = Rlc_numerics.Stats.min_max values in
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (reduced.(i) -. v)))
    values;
  let stable = model.Rlc_mor.Prima.stable in
  let speedup = transient_s /. eval_s in
  let err_pct = 100.0 *. !worst /. (hi -. lo) in
  gate "pooled_eval_identical" (Exactly 1.0)
    (Bool.to_float (bit_identical reduced reduced_pooled))
    "MOR bench: pooled eval differs from the serial eval";
  gate "stable" (Exactly 1.0) (Bool.to_float stable)
    "MOR bench: reduced model is unstable";
  gate "worst_err_pct_of_swing" (At_most 1.0) err_pct
    "MOR bench: reduced step off by %.3f%% of swing (> 1%%)" err_pct;
  gate "eval_speedup" (At_least 50.0) speedup
    "MOR bench: eval speedup %.1fx below the 50x target" speedup;
  List.iter
    (fun (key, counter, n, expected) ->
      gate key (Exactly (float_of_int expected)) (float_of_int n)
        "MOR bench: %d %s per Prima.reduce (gate: %d)" n counter expected)
    [
      ("arnoldi_vectors_per_reduce", "arnoldi.vectors", vectors, 10);
      ("prima_moments_per_reduce", "prima.moments", moments, 9);
    ];
  [
    ( "description",
      J.Str
        (Printf.sprintf
           "PRIMA order-%d reduced model vs full banded transient on an \
            RC-dominated %d-segment RLC ladder (5 cm, 4400 ohm/m, 0.1 uH/m, \
            123.33 pF/m, 100 ohm driver). Step response compared at every \
            transient sample; times in seconds, transient_s and eval_s \
            (whose ratio is gated) in process CPU seconds."
           order segments) );
    ("segments", int segments);
    ("unknowns", int asm.Assembly.size);
    ("order", int order);
    ("kept_poles", int (Array.length model.Rlc_mor.Prima.poles));
    ("stable", J.Bool stable);
    ("reduce_s", J.Num reduce_s);
    ("transient_s", J.Num transient_s);
    ("eval_s", J.Num eval_s);
    ("eval_speedup", J.Num speedup);
    ("worst_err_pct_of_swing", J.Num err_pct);
  ]

(* ------------------------------------------------------------------ *)
(* Instrumentation: disabled-path overhead + waveform identity gate    *)
(* ------------------------------------------------------------------ *)

(* Record calls on the fixed-step transient hot path while recording is
   disabled: the advance wrapper's recording() branch, the permuted
   solve's branch, the banded/dense solve counter and the LU-cache hit
   counter -- call it 8 per step to stay conservative. *)
let calls_per_step = 8

(* The acceptance gate for the instrumentation layer itself: neither
   metrics recording nor journal/health capture may change the computed
   waveforms (bitwise; the probes only read factorisation by-products),
   a disabled Metrics.incr and a disabled Journal.record must each cost
   well under 2% of a transient step, and every captured journal line
   must round-trip through the rlcstat parser.  Machine noise inflates
   the step time, so the overhead gates can only get easier to pass on
   a loaded box, never spuriously fail. *)
let run_instr_bench () =
  let segments, steps = if smoke then (200, 400) else (800, 1000) in
  let open Rlc_circuit in
  let nl, _src, far = Ladder.driven_line (ladder_spec segments) in
  let t_end = 1e-9 in
  let dt = t_end /. float_of_int steps in
  let probe = Transient.Node_v far in
  let run () =
    Transient.simulate
      ~config:{ Transient.Config.default with backend = Transient.Banded }
      nl ~t_end ~dt ~probes:[ probe ]
  in
  let values r = Rlc_waveform.Waveform.values (Transient.get r probe) in
  let was = Rlc_instr.Control.enabled () in
  let was_journaling = Rlc_instr.Journal.capturing () in
  Rlc_instr.Journal.stop ();
  Rlc_instr.Control.set_enabled false;
  let r_off, off_s = wall_best 3 run in
  Rlc_instr.Control.set_enabled true;
  let r_rec = run () in
  Rlc_instr.Journal.start ();
  (* one synthetic event with every field type keeps the round-trip
     check meaningful even when all solves classify Ok (healthy solves
     journal nothing) *)
  Rlc_instr.Journal.record "bench.obs"
    [
      ("n", Rlc_instr.Journal.Int 1);
      ("x", Rlc_instr.Journal.Num 0.5);
      ("s", Rlc_instr.Journal.Str "ok");
    ];
  let r_jnl = run () in
  let lines = Rlc_instr.Journal.to_lines () in
  Rlc_instr.Journal.stop ();
  Rlc_instr.Control.set_enabled false;
  let calls = 10_000_000 in
  let per_call record =
    let (), loop_s =
      wall (fun () ->
          for _ = 1 to calls do
            record ()
          done)
    in
    loop_s /. float_of_int calls
  in
  let probe_counter = Rlc_instr.Metrics.counter "bench.disabled_probe" in
  let metrics_call_s =
    per_call (fun () -> Rlc_instr.Metrics.incr probe_counter)
  in
  let journal_call_s =
    per_call (fun () -> Rlc_instr.Journal.record "bench.obs_probe" [])
  in
  Rlc_instr.Control.set_enabled was;
  if was_journaling then Rlc_instr.Journal.start ();
  let v_off = values r_off in
  let rec_identical = bit_identical v_off (values r_rec) in
  let jnl_identical = bit_identical v_off (values r_jnl) in
  let step_s = off_s /. float_of_int steps in
  (* calls_per_step x the measured per-call cost, against the measured
     per-step time of the same loop *)
  let overhead_pct call_s =
    100.0 *. (float_of_int calls_per_step *. call_s) /. step_s
  in
  gate "recording_identical" (Exactly 1.0) (Bool.to_float rec_identical)
    "instr bench: waveforms differ between recording enabled and disabled";
  gate "journaling_identical" (Exactly 1.0) (Bool.to_float jnl_identical)
    "instr bench: waveforms differ between journaling enabled and disabled";
  List.iter
    (fun (name, what, call_s) ->
      let pct = overhead_pct call_s in
      gate name (At_most 2.0) pct
        "instr bench: disabled %s overhead %.4f%% of a transient step exceeds \
         the 2%% budget"
        what pct)
    [
      ("metrics_overhead_pct", "Metrics.incr", metrics_call_s);
      ("journal_overhead_pct", "Journal.record", journal_call_s);
    ];
  let events, skipped = Rlc_instr.Stat.events_of_lines lines in
  gate "journal_lines_skipped" (At_most 0.0) (float_of_int skipped)
    "instr bench: %d journal line(s) failed to parse in the rlcstat parser"
    skipped;
  gate "journal_events_parsed" (At_least 1.0)
    (float_of_int (List.length events))
    "instr bench: journal round-trip lost all events";
  (* parse → re-serialise must reproduce every line byte for byte: it
     is what makes an offline [rlcstat trace] match [--trace] *)
  gate "journal_lines_round_trip" (Exactly 1.0)
    (Bool.to_float (List.map Rlc_instr.Journal.line_of_event events = lines))
    "instr bench: journal lines do not round-trip byte for byte";
  [
    ( "description",
      J.Str
        "Instrumentation gate: fixed-step banded transient on a \
         step-driven RLC ladder, run with recording and journaling \
         disabled, with metrics recording enabled and with \
         journaling+health enabled (waveforms must be bit-identical across \
         all three), plus the measured per-call cost of a disabled \
         Metrics.incr and a disabled Journal.record against the per-step \
         cost of the transient hot loop. Times in seconds." );
    ("segments", int segments);
    ("steps", int steps);
    ("bit_identical", J.Bool (rec_identical && jnl_identical));
    ("per_step_s", J.Num step_s);
    ("calls_per_step", int calls_per_step);
    ("metrics_call_s", J.Num metrics_call_s);
    ("metrics_overhead_pct", J.Num (overhead_pct metrics_call_s));
    ("journal_call_s", J.Num journal_call_s);
    ("journal_overhead_pct", J.Num (overhead_pct journal_call_s));
    ("journal_events", int (List.length lines));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel: domain scaling + determinism on the experiment fan-outs   *)
(* ------------------------------------------------------------------ *)

let sweep_signature (s : Rlc_experiments.Sweeps.sweep) =
  List.concat_map
    (fun (p : Rlc_experiments.Sweeps.point) ->
      [
        p.Rlc_experiments.Sweeps.l;
        p.Rlc_experiments.Sweeps.l_crit;
        p.Rlc_experiments.Sweeps.h_ratio;
        p.Rlc_experiments.Sweeps.k_ratio;
        p.Rlc_experiments.Sweeps.delay_ratio;
        p.Rlc_experiments.Sweeps.rc_sized_penalty;
      ])
    s.Rlc_experiments.Sweeps.points

let stats_signature (s : Rlc_core.Variation.stats) =
  [
    s.Rlc_core.Variation.mean; s.Rlc_core.Variation.stddev;
    s.Rlc_core.Variation.min; s.Rlc_core.Variation.max;
    s.Rlc_core.Variation.p95;
  ]

let run_parallel_bench () =
  let node = Rlc_tech.Presets.node_100nm in
  let rc = Rlc_core.Rc_opt.optimize node in
  let h = rc.Rlc_core.Rc_opt.h_opt and k = rc.Rlc_core.Rc_opt.k_opt in
  let dist = Rlc_core.Variation.default_distribution node in
  let cases =
    [
      ( "fig4-8-sweep",
        fun p ->
          sweep_signature (Rlc_experiments.Sweeps.run ~pool:p ~n:21 node) );
      ( "monte-carlo-512",
        fun p ->
          stats_signature
            (Rlc_core.Variation.delay_statistics ~pool:p ~seed:42 ~n:512 node
               ~h ~k dist) );
    ]
  in
  let recommended = Domain.recommended_domain_count () in
  let worst_4 = ref infinity in
  let rows =
    List.concat_map
      (fun (name, work) ->
        let reference, base_s =
          wall (fun () -> work (Rlc_parallel.Pool.create ~domains:1 ()))
        in
        let ref_bits = List.map Int64.bits_of_float reference in
        List.map
          (fun domains ->
            let result, s =
              if domains = 1 then (reference, base_s)
              else wall (fun () -> work (Rlc_parallel.Pool.create ~domains ()))
            in
            let identical =
              List.equal Int64.equal ref_bits
                (List.map Int64.bits_of_float result)
            in
            gate
              (Printf.sprintf "%s_%d_identical" name domains)
              (Exactly 1.0) (Bool.to_float identical)
              "parallel bench: %s at %d domains is not bit-identical to the \
               sequential run"
              name domains;
            if domains = 4 then worst_4 := Float.min !worst_4 (base_s /. s);
            J.Obj
              [
                ("case", J.Str name);
                ("domains", int domains);
                ("s", J.Num s);
                (* vs the 1-domain run of the same workload *)
                ("speedup", J.Num (base_s /. s));
                ("bit_identical", J.Bool identical);
              ])
          [ 1; 2; 4 ])
      cases
  in
  if recommended >= 4 then
    gate "speedup_4_domains" (At_least 2.0) !worst_4
      "parallel bench: %.2fx speedup at 4 domains below the 2x target" !worst_4
  else
    Printf.printf
      "[only %d recommended domain(s) on this machine: speedup target not \
       asserted; determinism was]\n"
      recommended;
  [
    ( "description",
      J.Str
        "Pool.map domain scaling on the Fig 4-8 inductance sweep and a \
         512-sample Monte-Carlo (Variation.delay_statistics, fixed seed). \
         Results are asserted bit-identical across domain counts; times in \
         seconds." );
    ("recommended_domains", int recommended);
    ("runs", J.List rows);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel kernel timings: one Test.make per table/figure kernel      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let node100 = Rlc_tech.Presets.node_100nm in
  let node250 = Rlc_tech.Presets.node_250nm in
  let stage =
    Rlc_core.Stage.of_node node100 ~l:1.5e-6 ~h:0.012 ~k:300.0
  in
  let cs = Rlc_core.Pade.coeffs stage in
  let t1 =
    Test.make ~name:"T1:rc-closed-form" (Staged.stage (fun () ->
        ignore (Rlc_core.Rc_opt.optimize node250)))
  in
  let f2 =
    Test.make ~name:"F2:step-response-eval" (Staged.stage (fun () ->
        ignore (Rlc_core.Step_response.eval cs 1e-10)))
  in
  let f4 =
    Test.make ~name:"F4:critical-inductance" (Staged.stage (fun () ->
        ignore (Rlc_core.Critical_inductance.of_stage stage)))
  in
  let f5 =
    Test.make ~name:"F5/F6:newton-optimize" (Staged.stage (fun () ->
        ignore (Rlc_core.Rlc_opt.optimize_newton_only node100 ~l:1.5e-6)))
  in
  let f7 =
    Test.make ~name:"F7:delay-solve" (Staged.stage (fun () ->
        ignore (Rlc_core.Delay.of_coeffs cs)))
  in
  let f8 =
    Test.make ~name:"F8:residual-eval" (Staged.stage (fun () ->
        ignore (Rlc_core.Rlc_opt.residuals stage)))
  in
  let ext3 =
    Test.make ~name:"EXT:third-order-delay" (Staged.stage (fun () ->
        ignore (Rlc_core.Third_order.delay_stage stage)))
  in
  let ext_exact =
    Test.make ~name:"EXT:talbot-exact-eval" (Staged.stage (fun () ->
        ignore
          (Rlc_numerics.Laplace.step_response
             (fun s -> Rlc_core.Transfer.eval stage s)
             1e-10)))
  in
  let ring_step =
    (* one short transient (200 steps) of a 1-stage buffered line *)
    Test.make ~name:"F9-F12:transient-1kstep" (Staged.stage (fun () ->
        let nl = Rlc_circuit.Netlist.create () in
        let src = Rlc_circuit.Netlist.fresh_node nl in
        let far = Rlc_circuit.Netlist.fresh_node nl in
        Rlc_circuit.Netlist.add_vsource nl src Rlc_circuit.Netlist.ground
          (Rlc_circuit.Stimulus.Dc 1.0);
        Rlc_circuit.Ladder.make nl
          { Rlc_circuit.Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12;
            length = 0.011; segments = 10 }
          ~from_node:src ~to_node:far;
        let _ =
          Rlc_circuit.Transient.simulate nl ~t_end:1e-9 ~dt:1e-12
            ~probes:[ Rlc_circuit.Transient.Node_v far ]
        in
        ()))
  in
  [ t1; f2; f4; f5; f7; f8; ext3; ext_exact; ring_step ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let tests = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          if ns >= 1e6 then Printf.printf "%-28s %10.3f ms/run\n" name (ns /. 1e6)
          else if ns >= 1e3 then
            Printf.printf "%-28s %10.3f us/run\n" name (ns /. 1e3)
          else Printf.printf "%-28s %10.1f ns/run\n" name ns
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    rows;
  []

let run_extensions () =
  Rlc_experiments.Extensions.print_all_fast ~pool ();
  if not fast then begin
    print_newline ();
    Rlc_experiments.Extensions.print_chain ~pool ()
  end;
  []

(* ------------------------------------------------------------------ *)
(* Serving layer: compiled-deck cache, cold vs warm                    *)
(* ------------------------------------------------------------------ *)

(* The service consumes decks as text, so unlike the other benches the
   workload families are generated as netlist source: square RC grids
   (sparse plans, DC + AC queries) and W-card RLC ladders (banded
   plans, transient + delay queries).  [scale] perturbs element values
   only; every scale of one family shares a structural hash, which is
   exactly what the compiled-deck cache keys on. *)
let serve_grid_text ~scale n =
  let b = Buffer.create (n * n * 96) in
  Buffer.add_string b "* rc grid family\nV1 n_0_0 0 DC 1\n";
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if c + 1 < n then
        Printf.bprintf b "Rh%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c r (c + 1)
          (10.0 *. scale);
      if r + 1 < n then
        Printf.bprintf b "Rv%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c (r + 1) c
          (12.0 *. scale);
      Printf.bprintf b "C%d_%d n_%d_%d 0 %.6gp\n" r c r c (0.5 *. scale)
    done
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let serve_ladder_text ~scale segments =
  Printf.sprintf
    "* rlc ladder family\n\
     V1 in 0 PULSE(0 1 0 20p 20p 2n 4n)\n\
     W1 in far r=%.6g l=%.6gu c=%.6gp len=11m seg=%d\n\
     .end\n"
    (4400.0 *. scale) (1.5 *. scale) (123.33 *. scale) segments

let serve_job id query deck =
  Printf.sprintf "%s %s | %s" id query (Rlc_serve.Protocol.escape_deck deck)

let serve_workload ~grids ~ladders ~scales =
  let lines = ref [] in
  let add l = lines := l :: !lines in
  List.iter
    (fun n ->
      let mid = Printf.sprintf "n_%d_%d" (n / 2) (n / 2) in
      List.iteri
        (fun i scale ->
          let deck = serve_grid_text ~scale n in
          add (serve_job (Printf.sprintf "g%d-dc%d" n i)
                 (Printf.sprintf "dc %s" mid) deck);
          (* the AC sweep refactors per frequency point even when warm,
             so sweep once per family; the value variants replay the
             cheap refactor-only DC path the cache accelerates *)
          if i = 0 then
            add (serve_job (Printf.sprintf "g%d-ac%d" n i)
                   (Printf.sprintf "ac %s 1 1e6 1e9" mid) deck))
        scales)
    grids;
  List.iter
    (fun segments ->
      List.iteri
        (fun i scale ->
          let deck = serve_ladder_text ~scale segments in
          add (serve_job (Printf.sprintf "l%d-tr%d" segments i)
                 "tran far 20p 0.5n" deck);
          add (serve_job (Printf.sprintf "l%d-dl%d" segments i)
                 "delay far 0.5 20p 2n" deck);
          (* adjoint sensitivities of the two-pole delay: one forward +
             one adjoint factorisation regardless of parameter count *)
          if i = 0 then
            add (serve_job (Printf.sprintf "l%d-sn%d" segments i)
                   "delay-sens far 0.5 W1_seg0:r W1_seg0:l W1_c1:c" deck))
        scales)
    ladders;
  List.rev !lines

(* ------------------------------------------------------------------ *)
(* What-if workspace: rank-k value sweeps vs per-point refactors       *)
(* ------------------------------------------------------------------ *)

let run_whatif_bench () =
  let was_recording = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  let module Whatif = Rlc_circuit.Whatif in
  (* the sweep fixture is the sparse backend's grid workload: mesh
     refactors cost real time there, which is exactly what the rank-k
     fast path amortises *)
  let n_grid = if smoke then 24 else 40 in
  let fast_points = 10_000 in
  let base_points = if smoke then 1_000 else 10_000 in
  let pdn = Rlc_circuit.Pdn.build (Rlc_circuit.Pdn.rc_grid ~rows:n_grid ~cols:n_grid ()) in
  let netlist = pdn.Rlc_circuit.Pdn.netlist in
  let ws = Whatif.compile netlist in
  let ws0 = Whatif.compile ~max_rank:0 netlist in
  let target =
    Whatif.Dc_voltage
      (Rlc_circuit.Pdn.node pdn ~row:(n_grid / 2) ~col:(n_grid / 2))
  in
  let pname i = Printf.sprintf "rh%d_%d" i i in
  let picks = [| n_grid / 5; n_grid / 2; 4 * n_grid / 5 |] in
  let k = Array.length picks in
  let fparams = Array.map (fun i -> Whatif.param ws (pname i) `R) picks in
  let bparams = Array.map (fun i -> Whatif.param ws0 (pname i) `R) picks in
  let st = Random.State.make [| 2001 |] in
  let pts =
    Array.init fast_points (fun _ ->
        Array.init k (fun j ->
            Whatif.base_value fparams.(j)
            *. (0.7 +. (0.6 *. Random.State.float st 1.0))))
  in
  let set_of ps vs = List.init k (fun j -> (ps.(j), vs.(j))) in
  (* exactness: the fast path against the per-point refactor on a
     spread of the sweep's own points, before the timed passes *)
  let exact_samples = 200 in
  let stride = fast_points / exact_samples in
  let max_dev = ref 0.0 and nan_evals = ref 0 in
  for i = 0 to exact_samples - 1 do
    let vs = pts.(i * stride) in
    let a = Whatif.evaluate ~set:(set_of fparams vs) ws target in
    let b = Whatif.evaluate ~set:(set_of bparams vs) ws0 target in
    if Float.is_nan a || Float.is_nan b then incr nan_evals;
    let d = Float.abs (a -. b) in
    if d > !max_dev then max_dev := d
  done;
  let s_f0 = Whatif.stats ws and s_b0 = Whatif.stats ws0 in
  let acc = ref 0.0 in
  let _, fast_s =
    wall (fun () ->
        Array.iter
          (fun vs ->
            acc := !acc +. Whatif.evaluate ~set:(set_of fparams vs) ws target)
          pts)
  in
  let _, base_s =
    wall (fun () ->
        for i = 0 to base_points - 1 do
          acc :=
            !acc +. Whatif.evaluate ~set:(set_of bparams pts.(i)) ws0 target
        done)
  in
  let diff (a : Whatif.stats) (b : Whatif.stats) =
    { Whatif.updates = a.Whatif.updates - b.Whatif.updates;
      refactors = a.Whatif.refactors - b.Whatif.refactors;
      fallbacks = a.Whatif.fallbacks - b.Whatif.fallbacks }
  in
  let fast_stats = diff (Whatif.stats ws) s_f0 in
  let base_stats = diff (Whatif.stats ws0) s_b0 in
  let fast_pps = float_of_int fast_points /. fast_s in
  let base_pps = float_of_int base_points /. base_s in
  let speedup = fast_pps /. base_pps in
  (* the whole delay gradient of a driven line from one forward + one
     adjoint solve, cross-checked against relative-step central
     differences *)
  let ladder_segments = if smoke then 80 else 150 in
  let lnl, _, far =
    Rlc_circuit.Ladder.driven_line (ladder_spec ladder_segments)
  in
  let lws = Whatif.compile lnl in
  let wrt =
    [| Whatif.param lws
         (Printf.sprintf "line_seg%d" (ladder_segments / 5)) `R;
       Whatif.param lws
         (Printf.sprintf "line_seg%d" (ladder_segments / 2)) `L;
       Whatif.param lws (Printf.sprintf "line_c%d" (ladder_segments / 2)) `C
    |]
  in
  let delay_t = Whatif.Delay far in
  let adj = Whatif.gradient lws delay_t ~wrt in
  (* value_i = base_i (1 + x_i) at x = 0: each step is 1e-3 of its
     value.  A 1e-6 step would measure the delay solver's stopping
     noise (~1e-7 relative) rather than the adjoint; at 1e-3 the
     truncation error is far below the gate. *)
  let fdm =
    let base = Array.map Whatif.base_value wrt in
    let obj = Whatif.objective lws delay_t ~wrt in
    Rlc_numerics.Fdiff.gradient ~rel_step:1e-3
      (fun x -> obj (Array.mapi (fun i xi -> base.(i) *. (1.0 +. xi)) x))
      (Array.make (Array.length wrt) 0.0)
    |> Array.mapi (fun i g -> g /. base.(i))
  in
  let adjoint_rel = ref 0.0 and nan_grads = ref 0 in
  Array.iteri
    (fun i a ->
      let f = fdm.(i) in
      if Float.is_nan a || Float.is_nan f then incr nan_grads;
      let rel = Float.abs (a -. f) /. Float.max (Float.abs f) 1e-300 in
      if rel > !adjoint_rel then adjoint_rel := rel)
    adj;
  gate "nan_evaluations" (At_most 0.0) (float_of_int !nan_evals)
    "whatif bench: nan evaluation";
  gate "finite_sweep" (Exactly 1.0) (Bool.to_float (Float.is_finite !acc))
    "whatif bench: non-finite sweep accumulator";
  gate "nan_gradients" (At_most 0.0) (float_of_int !nan_grads)
    "whatif bench: nan gradient";
  gate "fast_path_speedup" (At_least 5.0) speedup
    "whatif bench: fast path only %.2fx the refactor baseline (gate: 5x)"
    speedup;
  gate "fast_vs_refactor_dev" (At_most 1e-9) !max_dev
    "whatif bench: fast path deviates %.3g (gate: 1e-9)" !max_dev;
  gate "adjoint_rel_err" (At_most 1e-6) !adjoint_rel
    "whatif bench: adjoint gradient off by %.3g rel vs fdiff (gate: 1e-6)"
    !adjoint_rel;
  let counter_gates prefix msg (s : Whatif.stats) ~updates ~refactors =
    List.iter
      (fun (name, n, expected) ->
        gate (prefix ^ name) (Exactly (float_of_int expected)) (float_of_int n)
          "whatif bench: %s counters off (updates %d, refactors %d, fallbacks \
           %d)"
          msg s.Whatif.updates s.Whatif.refactors s.Whatif.fallbacks)
      [
        ("updates", s.Whatif.updates, updates);
        ("refactors", s.Whatif.refactors, refactors);
        ("fallbacks", s.Whatif.fallbacks, 0);
      ]
  in
  counter_gates "fast_" "fast sweep" fast_stats ~updates:fast_points
    ~refactors:0;
  counter_gates "baseline_" "baseline" base_stats ~updates:0
    ~refactors:base_points;
  Rlc_instr.Control.set_enabled was_recording;
  let counters (s : Whatif.stats) =
    J.Obj
      [
        ("updates", int s.Whatif.updates);
        ("refactors", int s.Whatif.refactors);
        ("fallbacks", int s.Whatif.fallbacks);
      ]
  in
  [
    ( "description",
      J.Str
        (Printf.sprintf
           "Whatif workspace on a PDN mesh (the sparse backend's grid \
            workload): the same stream of rank-%d resistance perturbations \
            evaluated through the Sherman-Morrison-Woodbury fast path \
            (compile once, O(k n) per point) and through a max_rank:0 \
            workspace that refactors per point.  The adjoint gate takes the \
            two-pole delay gradient of a %d-segment driven RLC ladder from \
            one forward + one adjoint solve.  Gates: fast-path throughput >= \
            5x the refactor baseline, sampled fast-vs-refactor deviation <= \
            1e-9, adjoint delay gradient within 1e-6 of 1e-3-relative-step \
            central differences, and the workspace counters match the paths \
            taken."
           k ladder_segments) );
    ( "workload",
      J.Obj
        [
          ("grid", J.Str (Printf.sprintf "%dx%d" n_grid n_grid));
          ("unknowns", int (Whatif.assembly ws).Rlc_circuit.Assembly.size);
          ("rank_k", int k);
          ("adjoint_ladder_segments", int ladder_segments);
        ] );
    ( "sweep",
      J.Obj
        [
          ("fast_points", int fast_points);
          ("fast_s", J.Num fast_s);
          ("fast_pts_per_s", J.Num fast_pps);
          ("refactor_points", int base_points);
          ("refactor_s", J.Num base_s);
          ("refactor_pts_per_s", J.Num base_pps);
          ("speedup", J.Num speedup);
        ] );
    ( "exactness",
      J.Obj [ ("samples", int exact_samples); ("max_abs_dev", J.Num !max_dev) ]
    );
    ("adjoint", J.Obj [ ("max_rel_err_vs_fdiff", J.Num !adjoint_rel) ]);
    ( "counters",
      J.Obj
        [ ("fast", counters fast_stats);
          ("refactor_baseline", counters base_stats) ] );
  ]

let run_serve_bench () =
  let was_recording = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  let module Service = Rlc_serve.Service in
  let grids = if smoke then [ 32; 48 ] else [ 32; 40; 48 ] in
  let ladders = if smoke then [ 100 ] else [ 200; 400 ] in
  let scales = [ 1.0; 0.92 ] in
  let n_families = List.length grids + List.length ladders in
  let lines = serve_workload ~grids ~ladders ~scales in
  let n_jobs = List.length lines in
  let config = { Service.default_config with pool; batch_size = n_jobs } in
  let reps = 3 in
  (* each rep: a cold pass on a fresh service (first sight of every
     family pays plan + validation + symbolic analysis), then a warm
     pass on that same service.  Interleaving puts a VM slowdown of a
     few seconds on both sides of the best-of-reps ratio instead of
     on all the cold or all the warm passes, a full major GC before
     each pass keeps the cold pass's garbage off the warm pass's
     clock.  Under dune runtest the smoke run waits for the test
     suites (bench/dune), so no suite shares the cores with it. *)
  let timed f =
    Gc.full_major ();
    wall f
  in
  (* the work a warm pass must skip: every plan, symbolic analysis and
     cache resym is paid on first sight of a family *)
  let skipped =
    [ "solver.plan.banded"; "solver.plan.dense"; "solver.plan.sparse";
      "solver.sparse.analyze"; "solver.sparse.canalyze"; "serve.cache.resym" ]
  in
  let warm_counts = Array.make (List.length skipped) 0.0 in
  let cold_results = ref [] and cold_s = ref infinity in
  let warm_results = ref [] and warm_s = ref infinity in
  let warm_hits = ref 0 and warm_stats = ref None in
  for _ = 1 to reps do
    let svc = Service.create ~config () in
    let r, t = timed (fun () -> Service.process_lines svc lines) in
    cold_results := r;
    if t < !cold_s then cold_s := t;
    let hits () = (Service.cache_stats svc).Rlc_serve.Deck_cache.hits in
    let hits_before = hits () in
    let counts () =
      List.map (fun n -> Rlc_instr.Metrics.(value (counter n))) skipped
    in
    let before = counts () in
    let r, t = timed (fun () -> Service.process_lines svc lines) in
    warm_results := r;
    if t < !warm_s then warm_s := t;
    warm_hits := !warm_hits + hits () - hits_before;
    List.iteri
      (fun i (a, b) -> warm_counts.(i) <- warm_counts.(i) +. b -. a)
      (List.combine before (counts ()));
    warm_stats := Some (Service.cache_stats svc)
  done;
  let warm_stats = Option.get !warm_stats in
  let speedup = !cold_s /. !warm_s in
  let identical = List.equal String.equal !cold_results !warm_results in
  let quantiles =
    Rlc_instr.Metrics.hist_quantiles
      (Rlc_instr.Metrics.hist "serve.job_s")
      [| 0.5; 0.9; 0.99 |]
  in
  let failed =
    List.filter
      (fun l -> String.length l < 3 || String.sub l 0 3 <> "ok ")
      !cold_results
  in
  gate "jobs_ok" (At_most 0.0)
    (float_of_int (List.length failed))
    "serve bench: job failed: %s"
    (match failed with l :: _ -> l | [] -> "");
  gate "streams_identical" (Exactly 1.0) (Bool.to_float identical)
    "serve bench: warm result stream differs from the cold one";
  List.iteri
    (fun i name ->
      gate
        ("warm_" ^ String.map (function '.' -> '_' | c -> c) name)
        (At_most 0.0) warm_counts.(i)
        "serve bench: warm passes counted %g %s (gate: 0)" warm_counts.(i) name)
    skipped;
  gate "warm_speedup" (At_least 2.0) speedup
    "serve bench: warm pass only %.2fx faster than cold (gate: 2x)" speedup;
  gate "warm_hits" (Exactly (float_of_int (reps * n_jobs)))
    (float_of_int !warm_hits)
    "serve bench: warm passes should hit on every job (%d hits over %d jobs)"
    !warm_hits (reps * n_jobs);
  gate "latency_recorded" (Exactly 1.0) (Bool.to_float (quantiles <> None))
    "serve bench: no p50/p99 job latency recorded";
  Rlc_instr.Control.set_enabled was_recording;
  [
    ( "description",
      J.Str
        "rlcserved compiled-deck cache: one job stream (RC-grid DC/AC + \
         RLC-ladder transient/delay families, value-only variants within \
         each family) replayed against a cold service and again against \
         the warm one.  Wall seconds are best-of-reps for the whole \
         stream; the warm pass reuses every plan and sparse \
         symbolic through the cache.  Gates: warm speedup >= 2x, cold and \
         warm result streams byte-identical, all warm lookups hit, no \
         plan, symbolic analysis or resym in a warm pass, latency \
         quantiles recorded." );
    ( "workload",
      J.Obj [ ("families", int n_families); ("jobs_per_pass", int n_jobs) ] );
    ( "passes",
      J.Obj
        [
          ("cold_s", J.Num !cold_s);
          ("warm_s", J.Num !warm_s);
          ("warm_speedup", J.Num speedup);
          ("streams_identical", J.Bool identical);
        ] );
    ( "warm_cache",
      J.Obj
        [
          ("hits", int warm_stats.Rlc_serve.Deck_cache.hits);
          ("misses", int warm_stats.Rlc_serve.Deck_cache.misses);
          ("aliases", int warm_stats.Rlc_serve.Deck_cache.aliases);
          ("evictions", int warm_stats.Rlc_serve.Deck_cache.evictions);
          ("entries", int warm_stats.Rlc_serve.Deck_cache.entries);
        ] );
    ( "latency",
      match quantiles with
      | Some [| p50; p90; p99 |] ->
          J.Obj
            [ ("p50_s", J.Num p50); ("p90_s", J.Num p90); ("p99_s", J.Num p99) ]
      | Some _ | None -> J.Null );
  ]

(* ------------------------------------------------------------------ *)
(* The section table                                                    *)
(* ------------------------------------------------------------------ *)

(* What a run does with a section: leave it out, print it, or print it
   and record it in a BENCH file. *)
type run = Skip | Print | Record of string

(* title, what --smoke does, what the full run does, body *)
let sections =
  let ring = if fast then Skip else Print in
  [
    ("T1: Table 1 -- technology parameters", Skip, Print, run_table1);
    ("F2: Figure 2 -- second-order step responses", Skip, Print, run_fig2);
    ("F4-F8: inductance sweeps (Sections 3.1 / 3.2)", Skip, Print,
     run_sweep_figs);
    ("F9/F10: ring-oscillator waveforms (Section 3.3.1)", Skip, ring,
     run_ring_waveforms);
    ("F11/F12: ring-oscillator period and current density vs l", Skip,
     ring, run_ring_sweeps);
    ("Ladder scaling: dense vs banded transient backend", Print,
     Record "BENCH_transient.json", run_ladder_scaling);
    ("Adaptive transient gate: 24-segment ramp-driven ladder", Print, Skip,
     run_adaptive_gate);
    ("Optimization gate: Newton-first (h, k) sweeps", Record "BENCH_opt.json",
     Skip, run_optimize_gate);
    (* the recorded BENCH_ac.json comes from the full run's
       100/400/800-segment cases *)
    ("AC: dense-complex vs complex-banded per-point solves", Print,
     Record "BENCH_ac.json", run_ac_bench);
    ("Sparse LU: ladder-vs-grid backend matrix", Record "BENCH_sparse.json",
     Record "BENCH_sparse.json", run_sparse_bench);
    ("MOR: PRIMA reduced model vs banded transient", Record "BENCH_mor.json",
     Record "BENCH_mor.json", run_mor_bench);
    ("Instrumentation: disabled metrics/journal overhead + waveform identity",
     Record "BENCH_instr.json", Record "BENCH_instr.json", run_instr_bench);
    ("Parallel: domain scaling (Fig 4-8 sweep + 512-sample Monte-Carlo)",
     Record "BENCH_parallel.json", Record "BENCH_parallel.json",
     run_parallel_bench);
    ("What-if workspace: rank-k updates vs per-point refactors",
     Record "BENCH_whatif.json", Record "BENCH_whatif.json", run_whatif_bench);
    ("Serving layer: compiled-deck cache cold vs warm",
     Record "BENCH_serve.json", Record "BENCH_serve.json", run_serve_bench);
    ("Extensions & ablations (beyond the paper)", Skip, Print, run_extensions);
    ("Kernel timings (Bechamel)", Skip,
     (if no_bechamel then Skip else Print), run_bechamel);
  ]

let () =
  if not smoke then
    Printf.printf
      "RLC interconnect performance-optimization reproduction -- benchmark \
       harness (%d worker domain%s)\n"
      jobs
      (if jobs = 1 then "" else "s");
  List.iter
    (fun (title, in_smoke, in_full, body) ->
      match if smoke then in_smoke else in_full with
      | Skip -> ()
      | (Print | Record _) as run -> (
          section title;
          let fields = body () in
          show fields;
          Option.iter failwith !missed;
          match run with
          | Record path -> record path fields
          | Skip | Print -> ()))
    sections;
  if smoke then print_endline "\nbench smoke OK"
