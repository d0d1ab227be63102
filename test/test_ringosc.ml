(* Tests for rlc_ringosc.  Transient ring simulations are expensive, so
   quick tests use small rings / coarse ladders and the full-size
   checks are marked `Slow. *)

open Approx

let node100 = Rlc_tech.Presets.node_100nm

open Rlc_ringosc

let small_config ?(l = 0.0) () =
  Ring.config ~stages:3 ~segments:4 node100 ~l ~h:3e-3 ~k:100.0

let test_config_validation () =
  Alcotest.check_raises "even stages"
    (Invalid_argument "Ring.config: stages must be odd and >= 3") (fun () ->
      ignore (Ring.config ~stages:4 node100 ~l:0.0 ~h:1e-3 ~k:10.0));
  Alcotest.check_raises "negative l"
    (Invalid_argument "Ring.config: l < 0") (fun () ->
      ignore (Ring.config node100 ~l:(-1.0) ~h:1e-3 ~k:10.0))

let test_rc_sized_config () =
  let cfg = Ring.rc_sized_config node100 ~l:1e-6 in
  let rc = Rlc_core.Rc_opt.optimize node100 in
  check_close "h" rc.Rlc_core.Rc_opt.h_opt cfg.Ring.h;
  check_close "k" rc.Rlc_core.Rc_opt.k_opt cfg.Ring.k;
  Alcotest.(check int) "stages" 5 cfg.Ring.stages

let test_build_structure () =
  let cfg = small_config () in
  let built = Ring.build cfg in
  Alcotest.(check int) "stage outputs" 3 (Array.length built.Ring.stage_out);
  Alcotest.(check int) "stage inputs" 3 (Array.length built.Ring.stage_in);
  (* 3 inverters + 3 ladders of (4 RL + 5 C) *)
  Alcotest.(check int) "element count" 30
    (Array.length (Rlc_circuit.Netlist.elements built.Ring.netlist));
  (* the netlist passes DC-path validation *)
  Rlc_circuit.Netlist.validate built.Ring.netlist

let test_estimated_stage_delay () =
  let cfg = small_config () in
  let tau = Ring.estimated_stage_delay cfg in
  Alcotest.(check bool) "positive and sub-ns" true (tau > 0.0 && tau < 1e-9)

let test_small_ring_oscillates () =
  let cfg = small_config () in
  let sim = Ring.simulate cfg in
  let m = Analysis.measure sim in
  (match m.Analysis.period with
  | Some p ->
      (* period ~ 2 * stages * stage delay, generous envelope *)
      let tau = Ring.estimated_stage_delay cfg in
      let expected = 2.0 *. 3.0 *. tau in
      Alcotest.(check bool)
        (Printf.sprintf "period %.3g vs expected %.3g" p expected)
        true
        (p > 0.5 *. expected && p < 2.0 *. expected)
  | None -> Alcotest.fail "ring did not oscillate");
  (* rail-to-rail oscillation at the output *)
  let out = sim.Ring.out0 in
  let lo, hi = Rlc_numerics.Stats.min_max (Rlc_waveform.Waveform.values out) in
  Alcotest.(check bool) "reaches low rail" true (lo < 0.2);
  Alcotest.(check bool) "reaches high rail" true (hi > 1.0)

let test_no_ringing_without_inductance () =
  let cfg = small_config ~l:0.0 () in
  let sim = Ring.simulate cfg in
  let m = Analysis.measure sim in
  Alcotest.(check bool) "no overshoot" true
    (m.Analysis.input_overshoot < 0.05);
  Alcotest.(check bool) "no undershoot" true
    (m.Analysis.input_undershoot < 0.05)

let test_inductance_causes_ringing () =
  let quiet = Analysis.measure (Ring.simulate (small_config ~l:0.0 ())) in
  let loud = Analysis.measure (Ring.simulate (small_config ~l:2e-6 ())) in
  Alcotest.(check bool) "overshoot grows with l" true
    (loud.Analysis.input_overshoot > quiet.Analysis.input_overshoot +. 0.05)

let test_current_density_positive () =
  let m = Analysis.measure (Ring.simulate (small_config ~l:1e-6 ())) in
  Alcotest.(check bool) "peak > rms > 0" true
    (m.Analysis.peak_current_density > m.Analysis.rms_current_density
    && m.Analysis.rms_current_density > 0.0)

let test_false_switching_criterion () =
  let mk period =
    {
      Analysis.period;
      input_overshoot = 0.0;
      input_undershoot = 0.0;
      peak_current = 0.0;
      rms_current = 0.0;
      peak_current_density = 0.0;
      rms_current_density = 0.0;
    }
  in
  Alcotest.(check bool) "collapsed period flagged" true
    (Analysis.false_switching ~baseline_period:1.0 (mk (Some 0.4)));
  Alcotest.(check bool) "normal period fine" true
    (not (Analysis.false_switching ~baseline_period:1.0 (mk (Some 0.9))));
  Alcotest.(check bool) "no period = not flagged" true
    (not (Analysis.false_switching ~baseline_period:1.0 (mk None)))

(* full-size checks -- the paper's Section 3.3 content *)

let test_full_ring_period_grows_then_collapses () =
  let points =
    Analysis.period_sweep ~segments:8 node100
      ~l_values:[ 0.0; 1.0e-6; 2.0e-6; 4.0e-6 ]
  in
  match List.map (fun (_, m) -> m.Analysis.period) points with
  | [ Some p0; Some p1; Some p2; Some p4 ] ->
      Alcotest.(check bool) "period grows with l pre-onset" true
        (p1 > p0 && p2 > p1);
      Alcotest.(check bool) "period collapses at l=4 (false switching)" true
        (p4 < 0.6 *. p2)
  | _ -> Alcotest.fail "missing period measurements"

let test_250nm_survives () =
  let points =
    Analysis.period_sweep ~segments:8 Rlc_tech.Presets.node_250nm
      ~l_values:[ 0.0; 2.5e-6; 5.0e-6 ]
  in
  let baseline =
    match points with
    | (_, { Analysis.period = Some p; _ }) :: _ -> p
    | _ -> Alcotest.fail "no baseline"
  in
  List.iter
    (fun (l, m) ->
      Alcotest.(check bool)
        (Printf.sprintf "no false switching at l=%g" l)
        true
        (not (Analysis.false_switching ~baseline_period:baseline m)))
    points

let () =
  Alcotest.run "rlc_ringosc"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "rc-sized" `Quick test_rc_sized_config;
        ] );
      ( "build",
        [
          Alcotest.test_case "structure" `Quick test_build_structure;
          Alcotest.test_case "stage delay estimate" `Quick
            test_estimated_stage_delay;
        ] );
      ( "oscillation",
        [
          Alcotest.test_case "small ring oscillates" `Quick
            test_small_ring_oscillates;
          Alcotest.test_case "clean without inductance" `Quick
            test_no_ringing_without_inductance;
          Alcotest.test_case "inductance causes ringing" `Quick
            test_inductance_causes_ringing;
          Alcotest.test_case "current density sane" `Quick
            test_current_density_positive;
          Alcotest.test_case "false-switching criterion" `Quick
            test_false_switching_criterion;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "100nm: grow then collapse (Fig 11)" `Slow
            test_full_ring_period_grows_then_collapses;
          Alcotest.test_case "250nm survives 0..5 nH/mm" `Slow
            test_250nm_survives;
        ] );
    ]
