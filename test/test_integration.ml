(* Cross-module integration tests: the analytic model chain (exact
   transfer function -> Padé -> delay solver -> optimizer) against the
   independent transient circuit simulator and the numerical inverse
   Laplace transform, plus end-to-end checks of the experiment
   drivers. *)

open Approx

let node100 = Rlc_tech.Presets.node_100nm
let node250 = Rlc_tech.Presets.node_250nm

(* Build the Figure 1 structure (ideal step source -> R_S -> C_P ->
   distributed line -> C_L) in the circuit simulator and return the
   far-end waveform. *)
let simulate_stage ?(segments = 24) (stage : Rlc_core.Stage.t) ~t_end ~dt =
  let open Rlc_circuit in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let drv = Netlist.fresh_node nl in
  let far = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl src drv (Rlc_core.Stage.rs stage);
  Netlist.add_capacitor nl drv Netlist.ground (Rlc_core.Stage.cp stage);
  Ladder.make nl
    {
      Ladder.r = stage.Rlc_core.Stage.line.Rlc_core.Line.r;
      l = stage.Rlc_core.Stage.line.Rlc_core.Line.l;
      c = stage.Rlc_core.Stage.line.Rlc_core.Line.c;
      length = stage.Rlc_core.Stage.h;
      segments;
    }
    ~from_node:drv ~to_node:far;
  Netlist.add_capacitor nl far Netlist.ground (Rlc_core.Stage.cl stage);
  let r = Transient.simulate nl ~t_end ~dt ~probes:[ Transient.Node_v far ] in
  Transient.get r (Transient.Node_v far)

let delay_50 w =
  match
    Rlc_waveform.Measure.threshold_delay w ~fraction:0.5 ~v_final:1.0
  with
  | Some d -> d
  | None -> Alcotest.fail "no 50% crossing"

(* ---- Padé model vs transient simulator ---- *)

let test_pade_delay_matches_simulator () =
  (* across inductances, the second-order model's 50% delay must track
     the full distributed simulation within the Padé truncation error
     (~15%) *)
  List.iter
    (fun l ->
      let stage = Rlc_core.Rc_opt.stage node100 ~l in
      let tau = Rlc_core.Delay.of_stage stage in
      let w = simulate_stage stage ~t_end:(8.0 *. tau) ~dt:(tau /. 1500.0) in
      let sim = delay_50 w in
      Alcotest.(check bool)
        (Printf.sprintf "pade %.1fps vs sim %.1fps at l=%g" (tau *. 1e12)
           (sim *. 1e12) l)
        true
        (Float.abs (tau /. sim -. 1.0) < 0.15))
    [ 0.0; 1e-6; 2e-6 ]

let test_simulator_shows_more_overshoot () =
  (* the distributed line rings harder than its 2-pole reduction: the
     simulator's overshoot must be >= the Padé prediction *)
  let stage = Rlc_core.Rc_opt.stage node100 ~l:2e-6 in
  let cs = Rlc_core.Pade.coeffs stage in
  let tau = Rlc_core.Delay.of_coeffs cs in
  let w = simulate_stage stage ~t_end:(10.0 *. tau) ~dt:(tau /. 1500.0) in
  let sim_overshoot =
    Rlc_numerics.Stats.max (Rlc_waveform.Waveform.values w) -. 1.0
  in
  let pade_overshoot = Rlc_core.Step_response.overshoot cs in
  Alcotest.(check bool) "sim >= pade overshoot" true
    (sim_overshoot >= pade_overshoot -. 0.02)

(* ---- exact transfer function vs Talbot inversion vs simulator ---- *)

let test_talbot_matches_simulator () =
  let stage = Rlc_core.Rc_opt.stage node100 ~l:1.5e-6 in
  let tau = Rlc_core.Delay.of_stage stage in
  let w = simulate_stage ~segments:40 stage ~t_end:(6.0 *. tau) ~dt:(tau /. 2000.0) in
  let exact t =
    Rlc_numerics.Laplace.step_response
      (fun s -> Rlc_core.Transfer.eval stage s)
      t
  in
  (* compare at several times after the flight delay *)
  List.iter
    (fun frac ->
      let t = frac *. 4.0 *. tau in
      check_close
        (Printf.sprintf "v(t) at %.2f tau" (frac *. 4.0))
        (exact t)
        (Rlc_waveform.Waveform.value_at w t)
        ~tol:0.05)
    [ 0.5; 0.75; 1.0 ]

let test_talbot_50pct_delay () =
  (* exact 50% delay via Talbot vs the simulator; tight agreement
     because both represent the true distributed structure *)
  let stage = Rlc_core.Rc_opt.stage node100 ~l:1e-6 in
  let tau = Rlc_core.Delay.of_stage stage in
  let exact t =
    Rlc_numerics.Laplace.step_response
      (fun s -> Rlc_core.Transfer.eval stage s)
      t
  in
  let exact_wf =
    Rlc_waveform.Waveform.of_fn ~n:1200 exact ~t0:0.0 ~t1:(6.0 *. tau)
  in
  let w = simulate_stage ~segments:40 stage ~t_end:(6.0 *. tau) ~dt:(tau /. 2000.0) in
  check_rel "talbot vs ladder 50% delay" (delay_50 exact_wf) (delay_50 w)
    ~tol:0.03

(* ---- optimizer vs brute-force grid ---- *)

let test_optimizer_beats_grid () =
  let l = 2e-6 in
  let opt = Rlc_core.Rlc_opt.optimize node250 ~l in
  let best_grid = ref infinity in
  for i = 1 to 30 do
    for j = 1 to 30 do
      let h = 0.002 +. (0.001 *. float_of_int i) in
      let k = 50.0 +. (30.0 *. float_of_int j) in
      let v = Rlc_core.Rlc_opt.objective node250 ~l ~h ~k in
      if not (Float.is_nan v) then best_grid := Float.min !best_grid v
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "optimizer %.4g <= grid best %.4g"
       opt.Rlc_core.Rlc_opt.delay_per_length !best_grid)
    true
    (opt.Rlc_core.Rlc_opt.delay_per_length <= !best_grid *. 1.0001)

(* ---- capacitance-invariance of the delay ratio (Fig 7 ablation) ---- *)

let test_delay_ratio_c_invariance () =
  let ratio node =
    let at l =
      (Rlc_core.Rlc_opt.optimize node ~l).Rlc_core.Rlc_opt.delay_per_length
    in
    at 3e-6 /. at 0.0
  in
  check_close "ablation node has identical ratio" (ratio node100)
    (ratio Rlc_tech.Presets.node_100nm_250nm_dielectric)
    ~tol:1e-4

(* ---- experiment drivers run end-to-end ---- *)

let test_table1_experiment () =
  let rows = Rlc_experiments.Table1.compute () in
  Alcotest.(check int) "two nodes" 2 (List.length rows);
  List.iter
    (fun row ->
      let d0 = row.Rlc_experiments.Table1.node.Rlc_tech.Node.driver in
      let d = row.Rlc_experiments.Table1.rederived_driver in
      check_close "rs roundtrip" d0.Rlc_tech.Driver.rs d.Rlc_tech.Driver.rs
        ~tol:1e-6;
      Alcotest.(check bool) "c bracketed" true
        (row.Rlc_experiments.Table1.c_extracted_quiet > 0.0
        && row.Rlc_experiments.Table1.c_extracted_worst
           > row.Rlc_experiments.Table1.c_extracted_quiet))
    rows

let test_fig2_experiment () =
  let cases = Rlc_experiments.Fig2.compute () in
  Alcotest.(check int) "three regimes" 3 (List.length cases);
  match cases with
  | [ over; crit; under ] ->
      Alcotest.(check bool) "ordering" true
        (over.Rlc_experiments.Fig2.regime = Rlc_core.Pade.Overdamped
        && crit.Rlc_experiments.Fig2.regime = Rlc_core.Pade.Critically_damped
        && under.Rlc_experiments.Fig2.regime = Rlc_core.Pade.Underdamped);
      Alcotest.(check bool) "only underdamped overshoots" true
        (over.Rlc_experiments.Fig2.overshoot = 0.0
        && under.Rlc_experiments.Fig2.overshoot > 0.0)
  | _ -> Alcotest.fail "unexpected case list"

let test_sweep_experiment_shapes () =
  let s = Rlc_experiments.Sweeps.run ~n:6 node100 in
  let points = s.Rlc_experiments.Sweeps.points in
  Alcotest.(check int) "6 points" 6 (List.length points);
  let first = List.nth points 0 and last = List.nth points 5 in
  check_close "delay ratio starts at 1" 1.0
    first.Rlc_experiments.Sweeps.delay_ratio;
  Alcotest.(check bool) "delay ratio grows" true
    (last.Rlc_experiments.Sweeps.delay_ratio > 2.5);
  Alcotest.(check bool) "h ratio grows" true
    (last.Rlc_experiments.Sweeps.h_ratio
    > first.Rlc_experiments.Sweeps.h_ratio);
  Alcotest.(check bool) "k ratio falls" true
    (last.Rlc_experiments.Sweeps.k_ratio
    < first.Rlc_experiments.Sweeps.k_ratio);
  Alcotest.(check bool) "penalty >= 1 everywhere" true
    (List.for_all
       (fun p -> p.Rlc_experiments.Sweeps.rc_sized_penalty >= 1.0 -. 1e-9)
       points);
  (* the paper's Section 2.1 point: at the optimized (h, k) the system
     is never strongly over- or underdamped (|disc|/b2 stays below 3.8
     across the whole practical l range), so the Kahng-Muddu
     approximation is stuck in its inductance-blind critical fallback *)
  Alcotest.(check bool) "km in fallback at every optimized point" true
    (List.for_all
       (fun p -> not p.Rlc_experiments.Sweeps.km_applicable)
       points)

let test_fig8_penalty_band () =
  (* the paper's Figure 8 numbers: worst-case penalty ~6% at 250nm and
     ~12% at 100nm; allow generous bands around them *)
  let max_penalty node =
    let s = Rlc_experiments.Sweeps.run ~n:11 node in
    List.fold_left
      (fun acc p -> Float.max acc p.Rlc_experiments.Sweeps.rc_sized_penalty)
      1.0 s.Rlc_experiments.Sweeps.points
  in
  let p250 = max_penalty node250 and p100 = max_penalty node100 in
  Alcotest.(check bool)
    (Printf.sprintf "250nm penalty %.3f in [1.03, 1.12]" p250)
    true
    (p250 > 1.03 && p250 < 1.12);
  Alcotest.(check bool)
    (Printf.sprintf "100nm penalty %.3f in [1.08, 1.18]" p100)
    true
    (p100 > 1.08 && p100 < 1.18);
  Alcotest.(check bool) "100nm worse than 250nm" true (p100 > p250)

let test_fig4_lcrit_ordering () =
  let s250 = Rlc_experiments.Sweeps.run ~n:6 node250 in
  let s100 = Rlc_experiments.Sweeps.run ~n:6 node100 in
  List.iter2
    (fun p250 p100 ->
      Alcotest.(check bool) "lcrit(100nm) < lcrit(250nm)" true
        (p100.Rlc_experiments.Sweeps.l_crit
        < p250.Rlc_experiments.Sweeps.l_crit);
      Alcotest.(check bool) "lcrit grows with l" true
        (p250.Rlc_experiments.Sweeps.l_crit > 0.0))
    s250.Rlc_experiments.Sweeps.points s100.Rlc_experiments.Sweeps.points

let () =
  Alcotest.run "integration"
    [
      ( "model-vs-simulator",
        [
          Alcotest.test_case "pade delay tracks ladder" `Slow
            test_pade_delay_matches_simulator;
          Alcotest.test_case "ladder rings harder than pade" `Slow
            test_simulator_shows_more_overshoot;
        ] );
      ( "exact-response",
        [
          Alcotest.test_case "talbot matches ladder pointwise" `Slow
            test_talbot_matches_simulator;
          Alcotest.test_case "talbot vs ladder 50% delay" `Slow
            test_talbot_50pct_delay;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "beats brute-force grid" `Slow
            test_optimizer_beats_grid;
          Alcotest.test_case "delay ratio c-invariance (Fig 7)" `Slow
            test_delay_ratio_c_invariance;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table 1" `Quick test_table1_experiment;
          Alcotest.test_case "figure 2" `Quick test_fig2_experiment;
          Alcotest.test_case "sweep shapes" `Slow test_sweep_experiment_shapes;
          Alcotest.test_case "figure 8 penalty band" `Slow
            test_fig8_penalty_band;
          Alcotest.test_case "figure 4 ordering" `Slow test_fig4_lcrit_ordering;
        ] );
    ]
