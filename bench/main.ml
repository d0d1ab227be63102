(* Benchmark harness: regenerates every table and figure of the paper
   (Banerjee & Mehrotra, DAC 2001) and times the computational kernels
   with Bechamel.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- --fast  -- skip the transient ring sims
     dune exec bench/main.exe -- --no-bechamel  -- skip kernel timings
     dune exec bench/main.exe -- --smoke -- tiny ladder-scaling run only
                                            (wired into dune runtest)
     dune exec bench/main.exe -- -j N    -- worker domains for the
                                            experiment fan-outs (also
                                            --jobs N / --jobs=N; default
                                            from RLC_JOBS or the machine)
     dune exec bench/main.exe -- --stats -- dump the rlc_instr metrics
                                            table on exit (RLC_STATS=1
                                            works too)
     dune exec bench/main.exe -- --trace FILE.json -- Chrome trace of
                                            all recorded spans (turns
                                            journal capture on) *)

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
(* Every section starts from a zeroed registry, so the "metrics" block
   of the BENCH file it writes holds that section's work alone (and a
   --stats/--trace dump at exit covers the last section). *)
let section title =
  Rlc_instr.Metrics.reset ();
  Rlc_report.Report.section title

(* ------------------------------------------------------------------ *)
(* Paper experiments                                                    *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "T1: Table 1 -- technology parameters";
  Rlc_experiments.Table1.print (Rlc_experiments.Table1.compute ~pool ())

let run_fig2 () =
  section "F2: Figure 2 -- second-order step responses";
  Rlc_experiments.Fig2.print (Rlc_experiments.Fig2.compute ~pool ())

let run_sweep_figs () =
  section "F4-F8: inductance sweeps (Sections 3.1 / 3.2)";
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
  Rlc_experiments.Sweeps.print_baselines [ s100 ]

let run_ring_waveforms () =
  section "F9/F10: ring-oscillator waveforms (Section 3.3.1)";
  let cases =
    Rlc_experiments.Ring_figs.waveforms ~pool ~l_values:[ 1.8e-6; 2.2e-6 ] ()
  in
  List.iter
    (fun c -> Rlc_experiments.Ring_figs.print_waveform_case c)
    cases

let run_ring_sweeps () =
  section "F11/F12: ring-oscillator period and current density vs l";
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
    [ Rlc_tech.Presets.node_100nm; Rlc_tech.Presets.node_250nm ]

(* ------------------------------------------------------------------ *)
(* Ladder scaling: dense vs banded transient backend                   *)
(* ------------------------------------------------------------------ *)

(* Wall-clock timing now rides on the instrumentation library's
   monotonic-origin timers: always-on, never gated by RLC_STATS. *)
let wall f =
  let t = Rlc_instr.Timer.start () in
  let r = f () in
  (r, Rlc_instr.Timer.elapsed_s t)

(* The shortest of [reps] runs: a single wall-clock sample of a
   millisecond-scale job is at the mercy of scheduler noise. *)
let wall_best reps f =
  let result, t0 = wall f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = wall f in
    if t < !best then best := t
  done;
  (result, !best)

(* ------------------------------------------------------------------ *)
(* Run metadata + metrics snapshot, embedded in every BENCH_*.json     *)
(* ------------------------------------------------------------------ *)

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

(* "meta" (environment provenance) and "metrics" (registry snapshot at
   write time) fields for a BENCH_*.json; the caller is between the
   opening brace and the first payload field. *)
let write_meta oc ~jobs =
  Printf.fprintf oc
    "  \"meta\": {\"ocaml\": \"%s\", \"jobs\": %d, \"rlc_jobs_env\": %s, \
     \"recommended_domains\": %d, \"git_rev\": \"%s\", \"date\": \"%s\"},\n"
    Sys.ocaml_version jobs
    (match Sys.getenv_opt "RLC_JOBS" with
    | Some v -> Printf.sprintf "\"%s\"" (String.escaped v)
    | None -> "null")
    (Domain.recommended_domain_count ())
    (git_rev ()) (iso_date_utc ());
  Printf.fprintf oc "  \"metrics\": %s,\n" (Rlc_instr.Metrics.json_snapshot ())

type fixed_row = {
  segments : int;
  unknowns : int;
  steps : int;
  dense_s : float;
  banded_s : float;
  speedup : float;
  max_diff : float;
}

type adaptive_row = {
  a_segments : int;
  a_unknowns : int;
  accepted : int;
  rejected : int;
  advances : int;
  factorizations : int;
  auto_s : float;
}

let ladder_spec segments =
  { Rlc_circuit.Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12;
    length = 0.011; segments }

(* One step-driven RLC ladder, simulated to 1 ns with both fixed-step
   backends (identical trajectories, wall-clock compared). *)
let ladder_case ~segments ~steps =
  let open Rlc_circuit in
  let nl, _src, far = Ladder.driven_line (ladder_spec segments) in
  let unknowns = Netlist.node_count nl (* nodes-1 + 1 vsource *) in
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
  {
    segments;
    unknowns;
    steps;
    dense_s;
    banded_s;
    speedup = dense_s /. banded_s;
    max_diff = !max_diff;
  }

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
  {
    a_segments = segments;
    a_unknowns = Netlist.node_count nl;
    accepted = s.Transient.Stats.steps;
    rejected = s.Transient.Stats.rejected_steps;
    advances;
    factorizations = s.Transient.Stats.lu_factorizations;
    auto_s;
  }

let rejected_frac (r : adaptive_row) =
  float_of_int r.rejected /. float_of_int (r.accepted + r.rejected)

let write_bench_json path (fixed, adaptive) =
  let oc = open_out path in
  let field fmt = Printf.fprintf oc fmt in
  field "{\n";
  write_meta oc ~jobs;
  field
    "  \"description\": \"Dense vs banded MNA backend on step-driven RLC \
     ladders (Transient.simulate, trapezoidal; adaptive rtol=1e-4, auto \
     backend, one advance per attempted step). Times in seconds.\",\n";
  field "  \"fixed_step\": [\n";
  List.iteri
    (fun i (r : fixed_row) ->
      field
        "    {\"segments\": %d, \"unknowns\": %d, \"steps\": %d, \
         \"dense_s\": %.6f, \"banded_s\": %.6f, \"speedup\": %.2f, \
         \"max_abs_diff_v\": %.3e}%s\n"
        r.segments r.unknowns r.steps r.dense_s r.banded_s r.speedup
        r.max_diff
        (if i = List.length fixed - 1 then "" else ","))
    fixed;
  field "  ],\n";
  field "  \"adaptive\": [\n";
  List.iteri
    (fun i (r : adaptive_row) ->
      field
        "    {\"segments\": %d, \"unknowns\": %d, \"accepted_steps\": %d, \
         \"rejected_steps\": %d, \"rejected_frac\": %.4f, \"advances\": %d, \
         \"lu_factorizations\": %d, \"auto_s\": %.6f}%s\n"
        r.a_segments r.a_unknowns r.accepted r.rejected (rejected_frac r)
        r.advances r.factorizations r.auto_s
        (if i = List.length adaptive - 1 then "" else ","))
    adaptive;
  field "  ]\n}\n";
  close_out oc

let run_ladder_scaling ~sizes ~steps ~json =
  section "Ladder scaling: dense vs banded transient backend";
  Printf.printf "%8s %9s %7s %12s %12s %9s %12s\n" "segments" "unknowns"
    "steps" "dense [s]" "banded [s]" "speedup" "max |dV|";
  (* sizes are independent cases; when several worker domains run them
     concurrently the per-case wall clocks contend, but the dense/banded
     ratio and the trajectory cross-check stay meaningful *)
  let fixed =
    Rlc_parallel.Pool.map_list pool
      (fun segments -> ladder_case ~segments ~steps)
      sizes
  in
  List.iter
    (fun (r : fixed_row) ->
      Printf.printf "%8d %9d %7d %12.5f %12.5f %8.1fx %12.3e\n" r.segments
        r.unknowns r.steps r.dense_s r.banded_s r.speedup r.max_diff;
      if r.max_diff > 1e-9 then
        failwith "ladder scaling: dense and banded backends disagree")
    fixed;
  (* sequential: the advance count reads the process-wide registry *)
  let adaptive = List.map (fun segments -> adaptive_case ~segments) sizes in
  print_newline ();
  Printf.printf "%8s %9s %10s %10s %9s %10s %8s %12s\n" "segments" "unknowns"
    "accepted" "rejected" "rej frac" "advances" "LU" "auto [s]";
  List.iter
    (fun (r : adaptive_row) ->
      Printf.printf "%8d %9d %10d %10d %9.4f %10d %8d %12.5f\n" r.a_segments
        r.a_unknowns r.accepted r.rejected (rejected_frac r) r.advances
        r.factorizations r.auto_s)
    adaptive;
  (match json with
  | Some path ->
      write_bench_json path (fixed, adaptive);
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  fixed

(* Adaptive gate: a 24-segment, L-dominated ladder driven by a 200 ps
   ramp, against a fixed-step trapezoidal reference at dt_max/256 that
   is trusted only when the dt_max/128 run stays within 0.5% of swing.
   Fails on more than one advance per attempted step or on an error
   above 2% of swing. *)
let run_adaptive_gate () =
  section "Adaptive transient gate: 24-segment ramp-driven ladder";
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
  Printf.printf
    "%d accepted + %d rejected steps, %d advances; error %.3f%% of swing \
     (reference moves %.3f%% when its step doubles)\n"
    s.Transient.Stats.steps s.Transient.Stats.rejected_steps advances err moved;
  if moved >= 0.5 then
    failwith
      (Printf.sprintf "adaptive gate: reference moved %.3f%% (trust: 0.5%%)"
         moved);
  if advances > attempts then
    failwith
      (Printf.sprintf "adaptive gate: %d advances for %d attempted steps"
         advances attempts);
  if err > 2.0 then
    failwith
      (Printf.sprintf "adaptive gate: error %.3f%% of swing (gate: 2%%)" err)

(* The paper's (h, k) optimization is Newton-first with an analytic
   Jacobian: over an 8-point sweep of each preset every optimum must
   come from Newton, so no fallback is counted and Nelder-Mead never
   iterates, and one [optimize] may cost at most [max_solves_per_opt]
   delay solves ([roots.calls]): about one seeded solve per Newton
   point, where a finite-difference Jacobian cost about 35. *)
let max_solves_per_opt = 14.0

let write_opt_json path ~points ~opts ~us ~solves ~iterations ~fallbacks =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"Rlc_opt.optimize, the paper's Newton (h, k) \
     optimization with an analytic Jacobian, over %d-point Rlc_opt.sweep \
     runs of each preset.  Per optimization: wall time (best of 5 sweeps, \
     metrics recording off), delay solves (roots.calls), Newton \
     iterations and Nelder-Mead fallbacks.  Gates: 0 fallbacks, 0 \
     Nelder-Mead iterations, at most %g delay solves.\",\n"
    points max_solves_per_opt;
  Printf.fprintf oc
    "  \"workload\": {\"presets\": [%s], \"points_per_preset\": %d, \
     \"optimizations\": %d},\n"
    (String.concat ", "
       (List.map
          (fun n -> Printf.sprintf "\"%s\"" n.Rlc_tech.Node.name)
          Rlc_tech.Presets.all))
    points opts;
  Printf.fprintf oc
    "  \"per_optimize\": {\"us\": %.2f, \"delay_solves\": %.3f, \
     \"newton_iterations\": %.3f, \"fallbacks\": %.3f}\n"
    us solves iterations fallbacks;
  Printf.fprintf oc "}\n";
  close_out oc

let run_optimize_gate ~json =
  section "Optimization gate: Newton-first (h, k) sweeps";
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
  let us = best_s /. float_of_int opts *. 1e6 in
  Printf.printf
    "%d optimizations: %.1f us, %.2f delay solves, %.2f Newton iterations \
     each; %d fallbacks, %d Nelder-Mead iterations\n"
    opts us (per solves) (per iterations) fallbacks nm_iterations;
  (match json with
  | Some path ->
      write_opt_json path ~points ~opts ~us ~solves:(per solves)
        ~iterations:(per iterations) ~fallbacks:(per fallbacks);
      Printf.printf "recorded baseline in %s\n" path
  | None -> ());
  if fallbacks > 0 || nm_iterations > 0 then
    failwith
      (Printf.sprintf
         "optimization gate: %d fallbacks, %d Nelder-Mead iterations"
         fallbacks nm_iterations);
  if per solves > max_solves_per_opt then
    failwith
      (Printf.sprintf
         "optimization gate: %.2f delay solves per optimization (gate: %g)"
         (per solves) max_solves_per_opt)

(* ------------------------------------------------------------------ *)
(* AC: dense-complex vs complex-banded per-frequency solves            *)
(* ------------------------------------------------------------------ *)

type ac_row = {
  ac_segments : int;
  ac_unknowns : int;
  band : int; (* kl + ku + 1 under the shared plan's RCM ordering *)
  banded_points : int;
  dense_points : int;
  dense_per_point_s : float;
  banded_per_point_s : float;
  ac_speedup : float;
  max_dev : float; (* max |H_dense - H_banded| over the dense points *)
}

(* One driven RLC ladder, swept over three decades: every frequency
   point through Assembly.solve_complex, once forced dense
   (the historical O(n^3) path) and once under the shared plan
   (complex banded in RCM order, O(n.b^2)).  The dense side only gets
   a handful of points at the larger sizes -- a single 1603-unknown
   dense complex LU costs more than the entire banded sweep. *)
let ac_case ~segments ~dense_points ~banded_points =
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
  {
    ac_segments = segments;
    ac_unknowns = asm.Assembly.size;
    band = plan.Solver.kl + plan.Solver.ku + 1;
    banded_points = Array.length banded_fs;
    dense_points = Array.length dense_fs;
    dense_per_point_s = dense_per;
    banded_per_point_s = banded_per;
    ac_speedup = dense_per /. banded_per;
    max_dev = !max_dev;
  }

let write_ac_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"Per-frequency-point cost of the AC path on \
     step-driven RLC ladders (Assembly.solve_complex on the sparse stamp \
     IR, three decades at 7 points/decade): dense complex LU vs the shared \
     plan's complex banded LU in RCM order. Transfer functions compared at \
     every dense-timed point; times in seconds per point.\",\n\
    \  \"points\": [\n";
  List.iteri
    (fun i (r : ac_row) ->
      Printf.fprintf oc
        "    {\"segments\": %d, \"unknowns\": %d, \"band\": %d, \
         \"dense_points\": %d, \"banded_points\": %d, \"dense_per_point_s\": \
         %.6f, \"banded_per_point_s\": %.6f, \"speedup\": %.1f, \
         \"max_abs_dev_H\": %.3e}%s\n"
        r.ac_segments r.ac_unknowns r.band r.dense_points r.banded_points
        r.dense_per_point_s r.banded_per_point_s r.ac_speedup r.max_dev
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run_ac_bench ~cases ~json =
  section "AC: dense-complex vs complex-banded per-point solves";
  Printf.printf "%8s %9s %6s %14s %14s %9s %12s\n" "segments" "unknowns"
    "band" "dense [s/pt]" "banded [s/pt]" "speedup" "max |dH|";
  let rows =
    List.map
      (fun (segments, dense_points, banded_points) ->
        let r = ac_case ~segments ~dense_points ~banded_points in
        Printf.printf "%8d %9d %6d %14.6f %14.6f %8.1fx %12.3e\n" r.ac_segments
          r.ac_unknowns r.band r.dense_per_point_s r.banded_per_point_s
          r.ac_speedup r.max_dev;
        r)
      cases
  in
  List.iter
    (fun (r : ac_row) ->
      if r.max_dev > 1e-9 then
        failwith
          (Printf.sprintf
             "AC bench: dense and banded transfer functions differ by %.3e \
              at %d segments (> 1e-9)"
             r.max_dev r.ac_segments))
    rows;
  (* the algorithmic gate: at the largest size the banded path must be
     at least 10x cheaper per point than the dense complex LU *)
  (match List.rev rows with
  | (last : ac_row) :: _ when last.ac_segments >= 400 ->
      if last.ac_speedup < 10.0 then
        failwith
          (Printf.sprintf
             "AC bench: %.1fx per-point speedup at %d segments below the 10x \
              target"
             last.ac_speedup last.ac_segments)
  | _ -> ());
  (match json with
  | Some path ->
      write_ac_json path rows;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  rows

(* ------------------------------------------------------------------ *)
(* Sparse backend: ladder-vs-grid factor matrix + sweep-reuse gates    *)
(* ------------------------------------------------------------------ *)

type sparse_row = {
  s_case : string;  (* "ladder-200", "grid-32", ... *)
  s_unknowns : int;
  s_nnz : int;
  s_choice : string;  (* what the Auto plan picked *)
  s_band : int;  (* RCM bandwidth (banded storage width) *)
  s_lu_nnz : int;  (* L+U fill of the sparse factor *)
  dense_factor_s : float;  (* < 0 when extrapolated, see below *)
  dense_extrapolated_s : float;
  banded_factor_s : float;
  sparse_analyze_s : float;
  sparse_refactor_s : float;
  s_max_dev : float;  (* solution deviation vs the best oracle *)
}

(* Real G-system of a netlist under each forced backend.  The G matrix
   alone (mesh conductances + source incidence rows) is exactly what
   the DC path factors, and it is available for ladders and grids
   alike. *)
let sparse_case ~name ~reps ~with_dense (asm : Rlc_circuit.Assembly.t) =
  let open Rlc_numerics in
  let open Rlc_circuit in
  let fill = Assembly.Coo.iter asm.Assembly.g in
  let n = asm.Assembly.size in
  let auto_plan = asm.Assembly.plan in
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
  let dense_factor_s, dense_extrapolated_s, max_dev =
    if with_dense then begin
      let dense_plan = plan_of Solver.Dense in
      let fd, t = wall_best reps (fun () -> Solver.factor dense_plan ~fill) in
      (t, t, dev x_sparse (solve dense_plan fd))
    end
    else (-1.0, 0.0, dev x_sparse x_banded)
  in
  let lu_nnz =
    match Rlc_instr.Metrics.gauge_value (Rlc_instr.Metrics.gauge "solver.sparse.lu_nnz") with
    | Some v -> int_of_float v
    | None -> 0
  in
  {
    s_case = name;
    s_unknowns = n;
    s_nnz = Assembly.Coo.nnz asm.Assembly.g;
    s_choice =
      (match auto_plan.Solver.choice with
      | Solver.Sparse_lu -> "sparse"
      | Solver.Banded_lu -> "banded"
      | Solver.Dense_lu -> "dense");
    s_band = banded_plan.Solver.kl + banded_plan.Solver.ku + 1;
    s_lu_nnz = lu_nnz;
    dense_factor_s;
    dense_extrapolated_s;
    banded_factor_s;
    sparse_analyze_s;
    sparse_refactor_s;
    s_max_dev = max_dev;
  }

let ladder_asm segments =
  let nl, _src, _far = Rlc_circuit.Ladder.driven_line (ladder_spec segments) in
  Rlc_circuit.Assembly.of_netlist nl

let grid_pdn size =
  Rlc_circuit.Pdn.build (Rlc_circuit.Pdn.rc_grid ~rows:size ~cols:size ())

(* one symbolic analysis for a whole AC sweep, checked through the
   instrumentation counters: the engine analyses once at the reference
   frequency, then every sweep point (the reference one included)
   replays it -- 1 analyze + points refactors, zero repivots *)
type sweep_reuse = { sweep_points : int; canalyze : int; crefactor : int; repivot : int }

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
  {
    sweep_points = Array.length freqs;
    canalyze = v c_analyze - a0;
    crefactor = v c_refactor - r0;
    repivot = v c_repivot - p0;
  }

let write_sparse_json path rows (reuse : sweep_reuse) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"General sparse LU vs banded vs dense on the real \
     G-systems of RLC ladders and PDN grids (Solver.factor under forced \
     backends; seconds per factorisation, best of several). \
     dense_factor_s is -1 where the dense kernel was not run; \
     dense_extrapolated_s then scales the largest measured dense time by \
     (n'/n)^3. choice is what the Auto plan picks; sweep_reuse counts \
     symbolic reuse across one 16-point AC impedance scan.\",\n\
    \  \"cases\": [\n";
  List.iteri
    (fun i (r : sparse_row) ->
      Printf.fprintf oc
        "    {\"case\": \"%s\", \"unknowns\": %d, \"nnz\": %d, \"choice\": \
         \"%s\", \"band\": %d, \"lu_nnz\": %d, \"dense_factor_s\": %.6f, \
         \"dense_extrapolated_s\": %.6f, \"banded_factor_s\": %.6f, \
         \"sparse_analyze_s\": %.6f, \"sparse_refactor_s\": %.6f, \
         \"max_abs_dev\": %.3e}%s\n"
        r.s_case r.s_unknowns r.s_nnz r.s_choice r.s_band r.s_lu_nnz
        r.dense_factor_s r.dense_extrapolated_s r.banded_factor_s
        r.sparse_analyze_s r.sparse_refactor_s r.s_max_dev
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"sweep_reuse\": {\"points\": %d, \"canalyze\": %d, \"crefactor\": \
     %d, \"repivot\": %d}\n}\n"
    reuse.sweep_points reuse.canalyze reuse.crefactor reuse.repivot;
  close_out oc

let run_sparse_bench ~gate_size ~json =
  section "Sparse LU: ladder-vs-grid backend matrix";
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
  Printf.printf "%12s %9s %7s %7s %6s %12s %12s %12s %12s %10s\n" "case"
    "unknowns" "choice" "band" "fill" "dense [s]" "banded [s]" "analyze [s]"
    "refactor [s]" "max dev";
  let rows =
    List.map
      (fun (name, asm, with_dense) ->
        let r = sparse_case ~name ~reps ~with_dense asm in
        Printf.printf "%12s %9d %7s %7d %6d %12.6f %12.6f %12.6f %12.6f %10.3e\n"
          r.s_case r.s_unknowns r.s_choice r.s_band r.s_lu_nnz r.dense_factor_s
          r.banded_factor_s r.sparse_analyze_s r.sparse_refactor_s r.s_max_dev;
        r)
      cases
  in
  (* fill in the cubic dense extrapolation from the largest measured
     dense factorisation *)
  let dense_ref =
    List.fold_left
      (fun acc (r : sparse_row) ->
        if r.dense_factor_s > 0.0 then Some r else acc)
      None rows
  in
  let rows =
    List.map
      (fun (r : sparse_row) ->
        if r.dense_factor_s >= 0.0 then r
        else
          match dense_ref with
          | Some d ->
              let scale =
                let q = float_of_int r.s_unknowns /. float_of_int d.s_unknowns in
                q *. q *. q
              in
              { r with dense_extrapolated_s = d.dense_factor_s *. scale }
          | None -> r)
      rows
  in
  (* gates *)
  List.iter
    (fun (r : sparse_row) ->
      if r.s_max_dev > 1e-9 then
        failwith
          (Printf.sprintf
             "sparse bench: %s deviates by %.3e from its oracle (> 1e-9)"
             r.s_case r.s_max_dev))
    rows;
  let find name = List.find (fun r -> r.s_case = name) rows in
  let grid32 = find "grid-32" in
  if grid32.s_choice <> "sparse" then
    failwith "sparse bench: Auto sends the 32x32 grid to the banded kernel";
  let ladder = find "ladder-200" in
  if ladder.s_choice <> "banded" then
    failwith "sparse bench: Auto no longer keeps ladders banded";
  let gate = find (Printf.sprintf "grid-%d" gate_size) in
  if gate.s_unknowns >= 10_000 || smoke then begin
    if gate.dense_extrapolated_s < 10.0 *. gate.sparse_analyze_s then
      failwith
        (Printf.sprintf
           "sparse bench: at %d unknowns sparse analyze (%.4f s) is not 10x \
            under the dense cost (%.4f s)"
           gate.s_unknowns gate.sparse_analyze_s gate.dense_extrapolated_s);
    if gate.banded_factor_s < 2.0 *. gate.sparse_refactor_s then
      failwith
        (Printf.sprintf
           "sparse bench: at %d unknowns sparse refactor (%.4f s) is not 2x \
            under the banded factor (%.4f s)"
           gate.s_unknowns gate.sparse_refactor_s gate.banded_factor_s)
  end;
  let reuse = sparse_sweep_reuse (grid_pdn gate_size) in
  Printf.printf
    "sweep reuse over %d points: %d analyze, %d refactor, %d repivot\n"
    reuse.sweep_points reuse.canalyze reuse.crefactor reuse.repivot;
  if
    reuse.canalyze <> 1
    || reuse.crefactor <> reuse.sweep_points
    || reuse.repivot <> 0
  then
    failwith
      (Printf.sprintf
         "sparse bench: AC sweep did not reuse one symbolic analysis \
          (analyze %d, refactor %d over %d points, repivot %d)"
         reuse.canalyze reuse.crefactor reuse.sweep_points reuse.repivot);
  Rlc_instr.Control.set_enabled was_recording;
  (match json with
  | Some path ->
      write_sparse_json path rows reuse;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  rows

(* ------------------------------------------------------------------ *)
(* MOR: PRIMA reduced model vs full banded transient                   *)
(* ------------------------------------------------------------------ *)

type mor_row = {
  m_segments : int;
  m_unknowns : int;
  m_order : int;
  kept_poles : int;
  stable : bool;
  reduce_s : float;
  transient_s : float;
  eval_s : float;
  eval_speedup : float;
  worst_err_pct : float;
}

(* An RC-dominated global wire: the paper's r and c with a smaller
   inductance per length over a 5 cm span, driven through 100 ohm.
   Diffusive responses are what a low-order rational model captures
   tightly; a low-loss line's sharp wavefront is not an order-10
   story. *)
let mor_case ~segments ~order =
  let open Rlc_circuit in
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
  let model, reduce_s =
    wall (fun () -> Rlc_mor.Prima.reduce ~order asm ~node:far)
  in
  let t_end = 8e-9 and dt = 8e-12 in
  let probes = [ Transient.Node_v far ] in
  let r, transient_s =
    wall_best 2 (fun () ->
        Transient.simulate
          ~config:{ Transient.Config.default with backend = Transient.Banded }
          nl ~t_end ~dt ~probes)
  in
  let w = Transient.get r (Transient.Node_v far) in
  let times = Rlc_waveform.Waveform.times w in
  let values = Rlc_waveform.Waveform.values w in
  let reduced, eval_s =
    wall_best 5 (fun () -> Array.map (Rlc_mor.Prima.step_eval model) times)
  in
  (* the pooled fan-out must reproduce the serial evaluation bit for
     bit; the 50x speedup gate below stays on the serial timing so it
     is not at the mercy of domain-spawn overhead on small machines *)
  let reduced_pooled =
    Rlc_parallel.Pool.map pool (Rlc_mor.Prima.step_eval model) times
  in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float reduced_pooled.(i) then
        failwith "MOR bench: pooled eval differs from the serial eval")
    reduced;
  let lo, hi = Rlc_numerics.Stats.min_max values in
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (reduced.(i) -. v)))
    values;
  {
    m_segments = segments;
    m_unknowns = asm.Assembly.size;
    m_order = order;
    kept_poles = Array.length model.Rlc_mor.Prima.poles;
    stable = model.Rlc_mor.Prima.stable;
    reduce_s;
    transient_s;
    eval_s;
    eval_speedup = transient_s /. eval_s;
    worst_err_pct = 100.0 *. !worst /. (hi -. lo);
  }

let write_mor_json path (r : mor_row) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"PRIMA order-%d reduced model vs full banded \
     transient on an RC-dominated %d-segment RLC ladder (5 cm, 4400 ohm/m, \
     0.1 uH/m, 123.33 pF/m, 100 ohm driver). Step response compared at \
     every transient sample; times in seconds.\",\n\
    \  \"segments\": %d,\n\
    \  \"unknowns\": %d,\n\
    \  \"order\": %d,\n\
    \  \"kept_poles\": %d,\n\
    \  \"stable\": %b,\n\
    \  \"reduce_s\": %.6f,\n\
    \  \"transient_s\": %.6f,\n\
    \  \"eval_s\": %.6f,\n\
    \  \"eval_speedup\": %.1f,\n\
    \  \"worst_err_pct_of_swing\": %.4f\n\
     }\n"
    r.m_order r.m_segments r.m_segments r.m_unknowns r.m_order r.kept_poles
    r.stable r.reduce_s r.transient_s r.eval_s r.eval_speedup r.worst_err_pct;
  close_out oc

let run_mor_bench ~json =
  section "MOR: PRIMA reduced model vs banded transient";
  let r = mor_case ~segments:800 ~order:10 in
  Printf.printf "%8s %9s %6s %6s %11s %13s %10s %9s %10s\n" "segments"
    "unknowns" "order" "poles" "reduce [s]" "transient [s]" "eval [s]"
    "speedup" "err %swing";
  Printf.printf "%8d %9d %6d %6d %11.5f %13.5f %10.5f %8.1fx %10.3f\n"
    r.m_segments r.m_unknowns r.m_order r.kept_poles r.reduce_s r.transient_s
    r.eval_s r.eval_speedup r.worst_err_pct;
  if not r.stable then failwith "MOR bench: reduced model is unstable";
  if r.worst_err_pct > 1.0 then
    failwith
      (Printf.sprintf "MOR bench: reduced step off by %.3f%% of swing (> 1%%)"
         r.worst_err_pct);
  if r.eval_speedup < 50.0 then
    failwith
      (Printf.sprintf "MOR bench: eval speedup %.1fx below the 50x target"
         r.eval_speedup);
  (match json with
  | Some path ->
      write_mor_json path r;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  r

(* ------------------------------------------------------------------ *)
(* Instrumentation: disabled-path overhead + waveform identity gate    *)
(* ------------------------------------------------------------------ *)

type instr_row = {
  i_segments : int;
  i_steps : int;
  i_step_s : float; (* per-step transient time, recording + journal off *)
  i_metrics_call_s : float; (* per-call cost of a disabled Metrics.incr *)
  i_journal_call_s : float; (* per-call cost of a disabled Journal.record *)
  i_events : int; (* journal events captured in the journaling pass *)
}

(* Record calls on the fixed-step transient hot path while recording is
   disabled: the advance wrapper's recording() branch, the permuted
   solve's branch, the banded/dense solve counter and the LU-cache hit
   counter -- call it 8 per step to stay conservative. *)
let calls_per_step = 8

(* calls_per_step x the measured per-call cost, against the measured
   per-step time of the same loop *)
let overhead_pct (r : instr_row) call_s =
  100.0 *. (float_of_int calls_per_step *. call_s) /. r.i_step_s

let write_instr_json path (r : instr_row) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"Instrumentation gate: fixed-step banded transient \
     on a step-driven RLC ladder, run with recording and journaling \
     disabled, with metrics recording enabled and with journaling+health \
     enabled (waveforms must be bit-identical across all three), plus the \
     measured per-call cost of a disabled Metrics.incr and a disabled \
     Journal.record against the per-step cost of the transient hot loop. \
     Times in seconds.\",\n";
  Printf.fprintf oc "  \"segments\": %d,\n  \"steps\": %d,\n" r.i_segments
    r.i_steps;
  Printf.fprintf oc "  \"bit_identical\": true,\n";
  Printf.fprintf oc "  \"per_step_s\": %.9f,\n" r.i_step_s;
  Printf.fprintf oc "  \"calls_per_step\": %d,\n" calls_per_step;
  Printf.fprintf oc "  \"metrics_call_s\": %.3e,\n" r.i_metrics_call_s;
  Printf.fprintf oc "  \"metrics_overhead_pct\": %.4f,\n"
    (overhead_pct r r.i_metrics_call_s);
  Printf.fprintf oc "  \"journal_call_s\": %.3e,\n" r.i_journal_call_s;
  Printf.fprintf oc "  \"journal_overhead_pct\": %.4f,\n"
    (overhead_pct r r.i_journal_call_s);
  Printf.fprintf oc "  \"journal_events\": %d\n}\n" r.i_events;
  close_out oc

(* The acceptance gate for the instrumentation layer itself: neither
   metrics recording nor journal/health capture may change the computed
   waveforms (bitwise; the probes only read factorisation by-products),
   a disabled Metrics.incr and a disabled Journal.record must each cost
   well under 2% of a transient step, and every captured journal line
   must round-trip through the rlcstat parser.  Machine noise inflates
   the step time, so the overhead gates can only get easier to pass on
   a loaded box, never spuriously fail. *)
let run_instr_bench ~segments ~steps ~json =
  section "Instrumentation: disabled metrics/journal overhead + waveform \
           identity";
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
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
         a b
  in
  let was = Rlc_instr.Control.enabled () in
  let was_journaling = Rlc_instr.Journal.capturing () in
  Rlc_instr.Journal.stop ();
  Rlc_instr.Control.set_enabled false;
  let r_off, off_s = wall_best 3 run in
  Rlc_instr.Control.set_enabled true;
  let r_rec, rec_s = wall run in
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
  let r_jnl, jnl_s = wall run in
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
  let rec_identical = same v_off (values r_rec) in
  let jnl_identical = same v_off (values r_jnl) in
  let row =
    {
      i_segments = segments;
      i_steps = steps;
      i_step_s = off_s /. float_of_int steps;
      i_metrics_call_s = metrics_call_s;
      i_journal_call_s = journal_call_s;
      i_events = List.length lines;
    }
  in
  let yes b = if b then "yes" else "NO" in
  Printf.printf "%8s %7s %10s %10s %10s %9s %9s %9s %9s %7s\n" "segments"
    "steps" "off [s]" "rec [s]" "jnl [s]" "rec-same" "jnl-same" "incr ovh"
    "jnl ovh" "events";
  Printf.printf "%8d %7d %10.5f %10.5f %10.5f %9s %9s %8.4f%% %8.4f%% %7d\n"
    segments steps off_s rec_s jnl_s (yes rec_identical) (yes jnl_identical)
    (overhead_pct row metrics_call_s)
    (overhead_pct row journal_call_s)
    row.i_events;
  if not rec_identical then
    failwith
      "instr bench: waveforms differ between recording enabled and disabled";
  if not jnl_identical then
    failwith
      "instr bench: waveforms differ between journaling enabled and disabled";
  List.iter
    (fun (what, call_s) ->
      let pct = overhead_pct row call_s in
      if pct > 2.0 then
        failwith
          (Printf.sprintf
             "instr bench: disabled %s overhead %.4f%% of a transient step \
              exceeds the 2%% budget"
             what pct))
    [ ("Metrics.incr", metrics_call_s); ("Journal.record", journal_call_s) ];
  let events, skipped = Rlc_instr.Stat.events_of_lines lines in
  if skipped > 0 then
    failwith
      (Printf.sprintf
         "instr bench: %d journal line(s) failed to parse in the rlcstat \
          parser"
         skipped);
  if events = [] then
    failwith "instr bench: journal round-trip lost all events";
  (* parse → re-serialise must reproduce every line byte for byte: it
     is what makes an offline [rlcstat trace] match [--trace] *)
  if List.map Rlc_instr.Journal.line_of_event events <> lines then
    failwith "instr bench: journal lines do not round-trip byte for byte";
  (match json with
  | Some path ->
      write_instr_json path row;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  row

(* ------------------------------------------------------------------ *)
(* Parallel: domain scaling + determinism on the experiment fan-outs   *)
(* ------------------------------------------------------------------ *)

type par_row = {
  p_name : string;
  p_domains : int;
  p_s : float;
  p_speedup : float;  (* vs the 1-domain run of the same workload *)
  p_identical : bool;  (* bit-identical to the 1-domain run *)
}

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

let write_parallel_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"Pool.map domain scaling on the Fig 4-8 inductance \
     sweep and a 512-sample Monte-Carlo (Variation.delay_statistics, fixed \
     seed). Results are asserted bit-identical across domain counts; times \
     in seconds.\",\n\
    \  \"recommended_domains\": %d,\n\
    \  \"runs\": [\n"
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"case\": \"%s\", \"domains\": %d, \"s\": %.6f, \"speedup\": \
         %.2f, \"bit_identical\": %b}%s\n"
        r.p_name r.p_domains r.p_s r.p_speedup r.p_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run_parallel_bench ~json =
  section "Parallel: domain scaling (Fig 4-8 sweep + 512-sample Monte-Carlo)";
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
  Printf.printf "%16s %8s %10s %9s %14s\n" "case" "domains" "wall [s]"
    "speedup" "bit-identical";
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
            let row =
              {
                p_name = name;
                p_domains = domains;
                p_s = s;
                p_speedup = base_s /. s;
                p_identical = identical;
              }
            in
            Printf.printf "%16s %8d %10.5f %8.2fx %14s\n" row.p_name
              row.p_domains row.p_s row.p_speedup
              (if identical then "yes" else "NO");
            row)
          [ 1; 2; 4 ])
      cases
  in
  List.iter
    (fun r ->
      if not r.p_identical then
        failwith
          (Printf.sprintf
             "parallel bench: %s at %d domains is not bit-identical to the \
              sequential run"
             r.p_name r.p_domains))
    rows;
  if Domain.recommended_domain_count () >= 4 then begin
    let worst =
      List.fold_left
        (fun acc r -> if r.p_domains = 4 then Float.min acc r.p_speedup else acc)
        infinity rows
    in
    if worst < 2.0 then
      failwith
        (Printf.sprintf
           "parallel bench: %.2fx speedup at 4 domains below the 2x target"
           worst)
  end
  else
    Printf.printf
      "\n[only %d recommended domain(s) on this machine: speedup target not \
       asserted; determinism was]\n"
      (Domain.recommended_domain_count ());
  (match json with
  | Some path ->
      write_parallel_json path rows;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ());
  rows

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
  section "Kernel timings (Bechamel)";
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
    rows

let run_extensions () =
  section "Extensions & ablations (beyond the paper)";
  Rlc_experiments.Extensions.print_all_fast ~pool ();
  if not fast then begin
    print_newline ();
    Rlc_experiments.Extensions.print_chain ~pool ()
  end

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

let write_serve_json path ~n_families ~n_jobs ~cold_s ~warm_s ~speedup
    ~identical ~(warm_stats : Rlc_serve.Deck_cache.stats) ~quantiles =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"rlcserved compiled-deck cache: one job stream \
     (RC-grid DC/AC + RLC-ladder transient/delay families, value-only \
     variants within each family) replayed against a cold service and \
     again against the warm one.  Wall seconds are best-of-reps for the \
     whole stream; the warm pass reuses every plan and sparse symbolic \
     through the cache.  Gates: warm speedup >= 2x, cold and warm result \
     streams byte-identical, all warm lookups hit, latency quantiles \
     recorded.\",\n";
  Printf.fprintf oc
    "  \"workload\": {\"families\": %d, \"jobs_per_pass\": %d},\n" n_families
    n_jobs;
  Printf.fprintf oc
    "  \"passes\": {\"cold_s\": %.6f, \"warm_s\": %.6f, \"warm_speedup\": \
     %.3f, \"streams_identical\": %b},\n"
    cold_s warm_s speedup identical;
  Printf.fprintf oc
    "  \"warm_cache\": {\"hits\": %d, \"misses\": %d, \"aliases\": %d, \
     \"evictions\": %d, \"entries\": %d},\n"
    warm_stats.Rlc_serve.Deck_cache.hits warm_stats.Rlc_serve.Deck_cache.misses
    warm_stats.Rlc_serve.Deck_cache.aliases
    warm_stats.Rlc_serve.Deck_cache.evictions
    warm_stats.Rlc_serve.Deck_cache.entries;
  (match quantiles with
  | Some (p50, p90, p99) ->
      Printf.fprintf oc
        "  \"latency\": {\"p50_s\": %.6g, \"p90_s\": %.6g, \"p99_s\": %.6g}\n"
        p50 p90 p99
  | None -> Printf.fprintf oc "  \"latency\": null\n");
  Printf.fprintf oc "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* What-if workspace: rank-k value sweeps vs per-point refactors       *)
(* ------------------------------------------------------------------ *)

let write_whatif_json path ~grid ~unknowns ~k ~ladder_segments ~fast_points
    ~fast_s ~base_points ~base_s ~speedup ~exact_samples ~max_dev
    ~adjoint_rel ~(fast_stats : Rlc_circuit.Whatif.stats)
    ~(base_stats : Rlc_circuit.Whatif.stats) =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  write_meta oc ~jobs;
  Printf.fprintf oc
    "  \"description\": \"Whatif workspace on a PDN mesh (the sparse \
     backend's grid workload): the same stream of rank-%d resistance \
     perturbations evaluated through the Sherman-Morrison-Woodbury \
     fast path (compile once, O(k n) per point) and through a \
     max_rank:0 workspace that refactors per point.  The adjoint gate \
     takes the two-pole delay gradient of a %d-segment driven RLC \
     ladder from one forward + one adjoint solve.  Gates: fast-path \
     throughput >= 5x the refactor baseline, sampled fast-vs-refactor \
     deviation <= 1e-9, adjoint delay gradient within 1e-6 of \
     1e-3-relative-step central differences, and the workspace \
     counters match the paths taken.\",\n"
    k ladder_segments;
  Printf.fprintf oc
    "  \"workload\": {\"grid\": \"%s\", \"unknowns\": %d, \"rank_k\": %d, \
     \"adjoint_ladder_segments\": %d},\n"
    grid unknowns k ladder_segments;
  Printf.fprintf oc
    "  \"sweep\": {\"fast_points\": %d, \"fast_s\": %.6f, \
     \"fast_pts_per_s\": %.1f, \"refactor_points\": %d, \"refactor_s\": \
     %.6f, \"refactor_pts_per_s\": %.1f, \"speedup\": %.2f},\n"
    fast_points fast_s
    (float_of_int fast_points /. fast_s)
    base_points base_s
    (float_of_int base_points /. base_s)
    speedup;
  Printf.fprintf oc
    "  \"exactness\": {\"samples\": %d, \"max_abs_dev\": %.3g},\n"
    exact_samples max_dev;
  Printf.fprintf oc "  \"adjoint\": {\"max_rel_err_vs_fdiff\": %.3g},\n"
    adjoint_rel;
  Printf.fprintf oc
    "  \"counters\": {\"fast\": {\"updates\": %d, \"refactors\": %d, \
     \"fallbacks\": %d}, \"refactor_baseline\": {\"updates\": %d, \
     \"refactors\": %d, \"fallbacks\": %d}}\n"
    fast_stats.Rlc_circuit.Whatif.updates
    fast_stats.Rlc_circuit.Whatif.refactors
    fast_stats.Rlc_circuit.Whatif.fallbacks
    base_stats.Rlc_circuit.Whatif.updates
    base_stats.Rlc_circuit.Whatif.refactors
    base_stats.Rlc_circuit.Whatif.fallbacks;
  Printf.fprintf oc "}\n";
  close_out oc

let run_whatif_bench ~json =
  section "What-if workspace: rank-k updates vs per-point refactors";
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
  let max_dev = ref 0.0 in
  for i = 0 to exact_samples - 1 do
    let vs = pts.(i * stride) in
    let a = Whatif.evaluate ~set:(set_of fparams vs) ws target in
    let b = Whatif.evaluate ~set:(set_of bparams vs) ws0 target in
    if Float.is_nan a || Float.is_nan b then
      failwith "whatif bench: nan evaluation";
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
  if not (Float.is_finite !acc) then
    failwith "whatif bench: non-finite sweep accumulator";
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
  let adjoint_rel = ref 0.0 in
  Array.iteri
    (fun i a ->
      let f = fdm.(i) in
      if Float.is_nan a || Float.is_nan f then
        failwith "whatif bench: nan gradient";
      let rel = Float.abs (a -. f) /. Float.max (Float.abs f) 1e-300 in
      if rel > !adjoint_rel then adjoint_rel := rel)
    adj;
  let unknowns = (Whatif.assembly ws).Rlc_circuit.Assembly.size in
  Printf.printf
    "%dx%d PDN mesh (%d unknowns), rank-%d value points: fast %d pts in \
     %.4f s (%.0f/s), refactor %d pts in %.4f s (%.0f/s) -- %.1fx\n"
    n_grid n_grid unknowns k fast_points fast_s fast_pps base_points base_s
    base_pps speedup;
  Printf.printf
    "exactness: max |fast - refactor| = %.3g over %d samples; adjoint vs \
     fdiff: %.3g rel\n"
    !max_dev exact_samples !adjoint_rel;
  (* gates *)
  if speedup < 5.0 then
    failwith
      (Printf.sprintf
         "whatif bench: fast path only %.2fx the refactor baseline (gate: \
          5x)"
         speedup);
  if !max_dev > 1e-9 then
    failwith
      (Printf.sprintf "whatif bench: fast path deviates %.3g (gate: 1e-9)"
         !max_dev);
  if !adjoint_rel > 1e-6 then
    failwith
      (Printf.sprintf
         "whatif bench: adjoint gradient off by %.3g rel vs fdiff (gate: \
          1e-6)"
         !adjoint_rel);
  if fast_stats.Whatif.updates <> fast_points
     || fast_stats.Whatif.refactors <> 0
     || fast_stats.Whatif.fallbacks <> 0
  then
    failwith
      (Printf.sprintf
         "whatif bench: fast sweep counters off (updates %d, refactors %d, \
          fallbacks %d)"
         fast_stats.Whatif.updates fast_stats.Whatif.refactors
         fast_stats.Whatif.fallbacks);
  if base_stats.Whatif.refactors <> base_points
     || base_stats.Whatif.updates <> 0
     || base_stats.Whatif.fallbacks <> 0
  then
    failwith
      (Printf.sprintf
         "whatif bench: baseline counters off (updates %d, refactors %d, \
          fallbacks %d)"
         base_stats.Whatif.updates base_stats.Whatif.refactors
         base_stats.Whatif.fallbacks);
  Rlc_instr.Control.set_enabled was_recording;
  match json with
  | Some path ->
      write_whatif_json path
        ~grid:(Printf.sprintf "%dx%d" n_grid n_grid)
        ~unknowns ~k ~ladder_segments ~fast_points ~fast_s ~base_points
        ~base_s ~speedup ~exact_samples ~max_dev:!max_dev
        ~adjoint_rel:!adjoint_rel ~fast_stats ~base_stats;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ()

let run_serve_bench ~json =
  section "Serving layer: compiled-deck cache cold vs warm";
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
     on all the cold or all the warm passes, and a full major GC
     before each pass keeps the cold pass's garbage off the warm
     pass's clock. *)
  let timed f =
    Gc.full_major ();
    wall f
  in
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
    let r, t = timed (fun () -> Service.process_lines svc lines) in
    warm_results := r;
    if t < !warm_s then warm_s := t;
    warm_hits := !warm_hits + hits () - hits_before;
    warm_stats := Some (Service.cache_stats svc)
  done;
  let warm_stats = Option.get !warm_stats in
  let speedup = !cold_s /. !warm_s in
  let identical = List.equal String.equal !cold_results !warm_results in
  let quantiles =
    match
      Rlc_instr.Metrics.hist_quantiles
        (Rlc_instr.Metrics.hist "serve.job_s")
        [| 0.5; 0.9; 0.99 |]
    with
    | Some [| p50; p90; p99 |] -> Some (p50, p90, p99)
    | Some _ | None -> None
  in
  Printf.printf
    "%d families, %d jobs/pass: cold %.4f s, warm %.4f s (%.2fx), streams \
     %s\n"
    n_families n_jobs !cold_s !warm_s speedup
    (if identical then "identical" else "DIFFER");
  (match quantiles with
  | Some (p50, p90, p99) ->
      Printf.printf "job latency: p50 <= %.3g s, p90 <= %.3g s, p99 <= %.3g s\n"
        p50 p90 p99
  | None -> ());
  (* gates *)
  List.iter
    (fun l ->
      if String.length l < 3 || String.sub l 0 3 <> "ok " then
        failwith ("serve bench: job failed: " ^ l))
    !cold_results;
  if not identical then
    failwith "serve bench: warm result stream differs from the cold one";
  if speedup < 2.0 then
    failwith
      (Printf.sprintf
         "serve bench: warm pass only %.2fx faster than cold (gate: 2x)"
         speedup);
  if !warm_hits <> reps * n_jobs then
    failwith
      (Printf.sprintf
         "serve bench: warm passes should hit on every job (%d hits over \
          %d jobs)"
         !warm_hits (reps * n_jobs));
  if quantiles = None then
    failwith "serve bench: no p50/p99 job latency recorded";
  Rlc_instr.Control.set_enabled was_recording;
  (match json with
  | Some path ->
      write_serve_json path ~n_families ~n_jobs ~cold_s:!cold_s
        ~warm_s:!warm_s ~speedup ~identical ~warm_stats ~quantiles;
      Printf.printf "\nrecorded baseline in %s\n" path
  | None -> ())

let () =
  if smoke then begin
    (* tiny, fast (<~2 s) cross-check of the backend-selection machinery
       and the parallel pool's determinism; wired into `dune runtest` /
       `make bench-smoke` *)
    let rows = run_ladder_scaling ~sizes:[ 10; 24 ] ~steps:200 ~json:None in
    if List.exists (fun r -> r.max_diff > 1e-9) rows then exit 1;
    run_adaptive_gate ();
    run_optimize_gate ~json:(Some "BENCH_opt.json");
    (* small sizes, no JSON: the recorded BENCH_ac.json baseline comes
       from the full run's 100/400/800-segment cases *)
    ignore (run_ac_bench ~cases:[ (24, 8, 8); (64, 8, 8) ] ~json:None);
    ignore (run_sparse_bench ~gate_size:100 ~json:(Some "BENCH_sparse.json"));
    ignore (run_mor_bench ~json:(Some "BENCH_mor.json"));
    ignore
      (run_instr_bench ~segments:200 ~steps:400
         ~json:(Some "BENCH_instr.json"));
    ignore (run_parallel_bench ~json:(Some "BENCH_parallel.json"));
    run_whatif_bench ~json:(Some "BENCH_whatif.json");
    run_serve_bench ~json:(Some "BENCH_serve.json");
    print_endline "\nbench smoke OK"
  end
  else begin
    Printf.printf
      "RLC interconnect performance-optimization reproduction -- benchmark \
       harness (%d worker domain%s)\n"
      jobs
      (if jobs = 1 then "" else "s");
    run_table1 ();
    run_fig2 ();
    run_sweep_figs ();
    if not fast then begin
      run_ring_waveforms ();
      run_ring_sweeps ()
    end
    else print_endline "\n[--fast: skipping transient ring experiments]";
    ignore
      (run_ladder_scaling ~sizes:[ 50; 200; 800 ] ~steps:1000
         ~json:(Some "BENCH_transient.json"));
    ignore
      (run_ac_bench
         ~cases:[ (100, 6, 22); (400, 3, 22); (800, 1, 22) ]
         ~json:(Some "BENCH_ac.json"));
    ignore (run_sparse_bench ~gate_size:100 ~json:(Some "BENCH_sparse.json"));
    ignore (run_mor_bench ~json:(Some "BENCH_mor.json"));
    ignore
      (run_instr_bench ~segments:800 ~steps:1000
         ~json:(Some "BENCH_instr.json"));
    ignore (run_parallel_bench ~json:(Some "BENCH_parallel.json"));
    run_whatif_bench ~json:(Some "BENCH_whatif.json");
    run_serve_bench ~json:(Some "BENCH_serve.json");
    run_extensions ();
    if not no_bechamel then run_bechamel ()
  end
