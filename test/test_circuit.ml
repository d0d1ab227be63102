(* Tests for rlc_circuit: stimulus evaluation, netlist construction,
   DC operating point, the MNA transient engine against closed-form
   circuit responses, and the ladder discretisation. *)

open Approx

open Rlc_circuit

(* ---------------- Stimulus ---------------- *)

let test_stimulus_dc () =
  check_close "dc" 3.3 (Stimulus.eval (Stimulus.Dc 3.3) 42.0)

let test_stimulus_step () =
  let s = Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = 1.0; t_rise = 2.0 } in
  check_close "before" 0.0 (Stimulus.eval s 0.5);
  check_close "mid-ramp" 0.5 (Stimulus.eval s 2.0);
  check_close "after" 1.0 (Stimulus.eval s 10.0)

let test_stimulus_pulse () =
  let s =
    Stimulus.Pulse
      { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 0.1; t_high = 0.3;
        t_fall = 0.1; period = 1.0 }
  in
  check_close "rising" 0.5 (Stimulus.eval s 0.05);
  check_close "high" 1.0 (Stimulus.eval s 0.2);
  check_close "falling" 0.5 (Stimulus.eval s 0.45);
  check_close "low" 0.0 (Stimulus.eval s 0.7);
  (* periodic repetition *)
  check_close "next period high" 1.0 (Stimulus.eval s 1.2)

let test_stimulus_pwl () =
  let s = Stimulus.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, -1.0) ] in
  check_close "interior 1" 1.0 (Stimulus.eval s 0.5);
  check_close "interior 2" 0.5 (Stimulus.eval s 2.0);
  check_close "clamped right" (-1.0) (Stimulus.eval s 99.0);
  check_close "clamped left" 0.0 (Stimulus.eval s (-1.0))

let test_stimulus_square_wave () =
  let s = Stimulus.square_wave ~vdd:1.2 ~period:1e-9 () in
  Stimulus.validate s;
  check_close "high plateau" 1.2 (Stimulus.eval s 0.25e-9);
  check_close "low plateau" 0.0 (Stimulus.eval s 0.75e-9)

let test_stimulus_validation () =
  Alcotest.check_raises "pulse too wide"
    (Invalid_argument "Stimulus: pulse does not fit its period") (fun () ->
      Stimulus.validate
        (Stimulus.Pulse
           { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 0.5; t_high = 0.5;
             t_fall = 0.5; period = 1.0 }));
  Alcotest.check_raises "pwl not increasing"
    (Invalid_argument "Stimulus: PWL times not increasing") (fun () ->
      Stimulus.validate (Stimulus.Pwl [ (1.0, 0.0); (1.0, 1.0) ]));
  Alcotest.check_raises "negative step delay"
    (Invalid_argument "Stimulus: step t_delay < 0") (fun () ->
      Stimulus.validate
        (Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = -1e-12; t_rise = 1e-12 }));
  Alcotest.check_raises "negative pulse delay"
    (Invalid_argument "Stimulus: pulse t_delay < 0") (fun () ->
      Stimulus.validate
        (Stimulus.Pulse
           { v0 = 0.0; v1 = 1.0; t_delay = -0.1; t_rise = 0.1; t_high = 0.1;
             t_fall = 0.1; period = 1.0 }));
  Alcotest.check_raises "pwl before t=0"
    (Invalid_argument "Stimulus: PWL starts before t = 0") (fun () ->
      Stimulus.validate (Stimulus.Pwl [ (-1.0, 0.0); (1.0, 1.0) ]));
  (* a zero delay and a zero first PWL time stay legal *)
  Stimulus.validate
    (Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 1e-12 });
  Stimulus.validate (Stimulus.Pwl [ (0.0, 0.0); (1.0, 1.0) ])

(* ---------------- Devices ---------------- *)

let test_devices_inverter () =
  let inv =
    Devices.inverter ~r_on:100.0 ~c_in:1e-15 ~c_out:2e-15 ~vdd:1.2 ()
  in
  check_close "default vth" 0.6 inv.Devices.vth;
  Alcotest.(check bool) "low input drives high" true
    (Devices.drives_high inv ~v_in:0.2);
  Alcotest.(check bool) "high input drives low" true
    (not (Devices.drives_high inv ~v_in:1.0));
  check_close "drive value" 1.2 (Devices.output_drive inv ~v_in:0.2)

let test_devices_of_driver () =
  let inv =
    Devices.inverter_of_driver Rlc_tech.Presets.node_100nm.Rlc_tech.Node.driver
      ~k:100.0 ~vdd:1.2 ()
  in
  check_close "r_on" 75.34 inv.Devices.r_on;
  check_close "c_in" 75.8e-15 inv.Devices.c_in;
  check_close "c_out" 368e-15 inv.Devices.c_out;
  (* default transition time: the size-invariant intrinsic delay *)
  check_close "t_transition" (7534.0 *. 4.438e-15) inv.Devices.t_transition
    ~tol:1e-6

let test_devices_validation () =
  Alcotest.check_raises "vth out of range"
    (Invalid_argument "Devices.inverter: vth outside (0, vdd)") (fun () ->
      ignore
        (Devices.inverter ~r_on:1.0 ~c_in:1e-15 ~c_out:1e-15 ~vdd:1.0
           ~vth:1.5 ()))

(* ---------------- Netlist ---------------- *)

let test_netlist_nodes () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node ~name:"a" nl in
  let b = Netlist.fresh_node nl in
  Alcotest.(check int) "ground is 0" 0 Netlist.ground;
  Alcotest.(check int) "first node" 1 a;
  Alcotest.(check int) "second node" 2 b;
  Alcotest.(check int) "count" 3 (Netlist.node_count nl);
  Alcotest.(check bool) "named lookup" true (Netlist.find_node nl "a" = Some 1);
  Alcotest.(check bool) "missing" true (Netlist.find_node nl "zz" = None)

let test_netlist_elements () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_resistor ~name:"r1" nl a Netlist.ground 100.0;
  Netlist.add_capacitor nl a Netlist.ground 1e-12;
  Alcotest.(check int) "two elements" 2 (Array.length (Netlist.elements nl));
  Alcotest.(check bool) "find r1" true (Netlist.find_element nl "r1" = Some 0);
  Alcotest.(check string) "auto name" "_e1" (Netlist.element_name nl 1)

let test_netlist_validation () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Alcotest.check_raises "bad resistance"
    (Invalid_argument "Netlist.add_resistor: ohms <= 0") (fun () ->
      Netlist.add_resistor nl a Netlist.ground 0.0);
  (* floating node: only a capacitor to ground *)
  let b = Netlist.fresh_node nl in
  Netlist.add_resistor nl a Netlist.ground 10.0;
  Netlist.add_capacitor nl b Netlist.ground 1e-12;
  Alcotest.check_raises "floating node"
    (Invalid_argument "Netlist.validate: node 2 has no DC path to ground")
    (fun () -> Netlist.validate nl)

(* a node the deck named is reported by its name *)
let test_netlist_validation_names_node () =
  let deck = Parser.parse_file "../examples/netlists/bad/floating_island.sp" in
  Alcotest.check_raises "named floating node"
    (Invalid_argument "Netlist.validate: node y has no DC path to ground")
    (fun () -> Netlist.validate deck.Parser.netlist)

let test_netlist_duplicate_names () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_resistor ~name:"r" nl a Netlist.ground 1.0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netlist: duplicate element name r") (fun () ->
      Netlist.add_resistor ~name:"r" nl a Netlist.ground 1.0)

(* ---------------- Dc ---------------- *)

let test_dc_divider () =
  let nl = Netlist.create () in
  let top = Netlist.fresh_node nl in
  let mid = Netlist.fresh_node nl in
  Netlist.add_vsource nl top Netlist.ground (Stimulus.Dc 10.0);
  Netlist.add_resistor nl top mid 6.0;
  Netlist.add_resistor nl mid Netlist.ground 4.0;
  let v = Dc.operating_point nl in
  check_close "top" 10.0 v.(top);
  check_close "divider" 4.0 v.(mid)

let test_dc_inductor_short () =
  (* inductor shorts in DC: only its series resistance matters *)
  let nl = Netlist.create () in
  let top = Netlist.fresh_node nl in
  let mid = Netlist.fresh_node nl in
  Netlist.add_vsource nl top Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_rl_branch nl top mid ~ohms:5.0 ~henries:1e-6;
  Netlist.add_resistor nl mid Netlist.ground 5.0;
  let v = Dc.operating_point nl in
  check_close "half" 0.5 v.(mid)

let test_dc_initial_conditions () =
  (* start a transient from the DC point: nothing should move *)
  let nl = Netlist.create () in
  let top = Netlist.fresh_node nl in
  let mid = Netlist.fresh_node nl in
  Netlist.add_vsource nl top Netlist.ground (Stimulus.Dc 10.0);
  Netlist.add_resistor nl top mid 6.0;
  Netlist.add_resistor nl mid Netlist.ground 4.0;
  Netlist.add_capacitor nl mid Netlist.ground 1e-9;
  let ics = Dc.initial_conditions nl in
  let r =
    Transient.simulate
      ~config:{ Transient.Config.default with initial_voltages = ics }
      nl ~t_end:1e-6 ~dt:1e-9
      ~probes:[ Transient.Node_v mid ]
  in
  let w = Transient.get r (Transient.Node_v mid) in
  let lo, hi = Rlc_numerics.Stats.min_max (Rlc_waveform.Waveform.values w) in
  check_close "stays at the divider" 4.0 lo ~tol:1e-6;
  check_close "no transient" 4.0 hi ~tol:1e-6

let test_dc_inverter_chain () =
  (* inverter with grounded input drives its output to vdd through r_on
     (no load current -> full rail) *)
  let nl = Netlist.create () in
  let input = Netlist.fresh_node nl in
  let output = Netlist.fresh_node nl in
  Netlist.add_resistor nl input Netlist.ground 1e6 (* keep input at 0 *);
  Netlist.add_inverter nl ~input ~output
    (Devices.inverter ~r_on:100.0 ~c_in:1e-15 ~c_out:1e-15 ~vdd:1.2 ());
  let v = Dc.operating_point nl in
  check_close "output at vdd" 1.2 v.(output)

let test_dc_system_reuse () =
  (* one factorisation serves the operating point and every
     per-source sensitivity; check both against finite differences *)
  let build v1 v2 =
    let nl = Netlist.create () in
    let a = Netlist.fresh_node nl in
    let b = Netlist.fresh_node nl in
    let mid = Netlist.fresh_node nl in
    Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc v1);
    Netlist.add_vsource nl b Netlist.ground (Stimulus.Dc v2);
    Netlist.add_resistor nl a mid 2.0;
    Netlist.add_rl_branch nl b mid ~ohms:3.0 ~henries:1e-9;
    Netlist.add_resistor nl mid Netlist.ground 6.0;
    (nl, mid)
  in
  let nl, mid = build 1.0 2.0 in
  let sys = Dc.make nl in
  let v = Dc.voltages sys in
  (* superposition: v_mid = v1/(2*(1/2+1/3+1/6)) + v2/(3*(...)) *)
  check_close "operating point" (0.5 +. (2.0 /. 3.0)) v.(mid) ~tol:1e-12;
  let x = Dc.unknowns sys in
  Alcotest.(check bool) "unknowns extend voltages" true
    (Array.length x > Array.length v - 1);
  Alcotest.(check int) "two inputs" 2 (Array.length (Dc.inputs sys));
  (* sensitivities against central finite differences over fresh solves *)
  let dv = 1e-3 in
  List.iteri
    (fun input _ ->
      let s = Dc.sensitivity sys ~input in
      let at v1 v2 = (Dc.operating_point (fst (build v1 v2))).(mid) in
      let fd =
        if input = 0 then (at (1.0 +. dv) 2.0 -. at (1.0 -. dv) 2.0) /. (2.0 *. dv)
        else (at 1.0 (2.0 +. dv) -. at 1.0 (2.0 -. dv)) /. (2.0 *. dv)
      in
      check_close
        (Printf.sprintf "d v_mid / d u%d" input)
        fd s.(mid) ~tol:1e-9)
    [ (); () ];
  Alcotest.check_raises "bad input index"
    (Invalid_argument "Dc.sensitivity: input 7 out of 2") (fun () ->
      ignore (Dc.sensitivity sys ~input:7))

(* ---------------- Transient ---------------- *)

let test_transient_rc_charge () =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let out = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl src out 1e3;
  Netlist.add_capacitor nl out Netlist.ground 1e-9;
  let r =
    Transient.simulate nl ~t_end:5e-6 ~dt:1e-9 ~probes:[ Transient.Node_v out ]
  in
  let w = Transient.get r (Transient.Node_v out) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "rc at %g" t)
        (1.0 -. Float.exp (-.t /. 1e-6))
        (Rlc_waveform.Waveform.value_at w t)
        ~tol:1e-4)
    [ 0.5e-6; 1e-6; 2e-6; 4e-6 ]

let test_transient_rl_current () =
  (* series RL driven by a DC source: i(t) = V/R (1 - e^{-tR/L}) *)
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_rl_branch ~name:"rl" nl src Netlist.ground ~ohms:10.0
    ~henries:1e-6;
  let r =
    Transient.simulate nl ~t_end:1e-6 ~dt:2e-10
      ~probes:[ Transient.Branch_i "rl" ]
  in
  let w = Transient.get r (Transient.Branch_i "rl") in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "rl current at %g" t)
        (0.1 *. (1.0 -. Float.exp (-.t *. 10.0 /. 1e-6)))
        (Rlc_waveform.Waveform.value_at w t)
        ~tol:1e-3)
    [ 1e-7; 3e-7; 8e-7 ]

let test_transient_rlc_ringing () =
  (* series RLC step: overshoot matches the analytic second-order
     formula, ringing frequency matches the damped natural frequency *)
  let rr = 10.0 and ll = 1e-6 and cc = 1e-9 in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let out = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_rl_branch nl src out ~ohms:rr ~henries:ll;
  Netlist.add_capacitor nl out Netlist.ground cc;
  let r =
    Transient.simulate nl ~t_end:3e-6 ~dt:5e-11 ~probes:[ Transient.Node_v out ]
  in
  let w = Transient.get r (Transient.Node_v out) in
  let zeta = rr /. 2.0 *. Float.sqrt (cc /. ll) in
  let overshoot = Float.exp (-.Float.pi *. zeta /. Float.sqrt (1.0 -. (zeta *. zeta))) in
  check_close "peak" (1.0 +. overshoot)
    (Rlc_numerics.Stats.max (Rlc_waveform.Waveform.values w))
    ~tol:1e-3;
  (* damped period *)
  let w0 = 1.0 /. Float.sqrt (ll *. cc) in
  let wd = w0 *. Float.sqrt (1.0 -. (zeta *. zeta)) in
  (match Rlc_waveform.Measure.period ~level:1.0 w with
  | Some p -> check_close "ringing period" (2.0 *. Float.pi /. wd) p ~tol:1e-2
  | None -> Alcotest.fail "no ringing detected")

let test_transient_capacitor_conservation () =
  (* two caps sharing charge through a resistor: final voltage is the
     charge-weighted average *)
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Netlist.add_capacitor nl a Netlist.ground 1e-9;
  Netlist.add_capacitor nl b Netlist.ground 3e-9;
  Netlist.add_resistor nl a b 1e3;
  let r =
    Transient.simulate
      ~config:{ Transient.Config.default with initial_voltages = [ (a, 2.0) ] }
      nl ~t_end:5e-5 ~dt:1e-8
      ~probes:[ Transient.Node_v a; Transient.Node_v b ]
  in
  let v = Transient.final_voltages r in
  check_close "final a" 0.5 v.(a) ~tol:1e-3;
  check_close "final b" 0.5 v.(b) ~tol:1e-3

let test_transient_inverter_switches () =
  (* inverter driven by a slow ramp: output flips near the threshold *)
  let nl = Netlist.create () in
  let input = Netlist.fresh_node nl in
  let output = Netlist.fresh_node nl in
  Netlist.add_vsource nl input Netlist.ground
    (Stimulus.Step { v0 = 0.0; v1 = 1.2; t_delay = 1e-9; t_rise = 4e-9 });
  Netlist.add_inverter nl ~input ~output
    (Devices.inverter ~r_on:100.0 ~c_in:1e-15 ~c_out:10e-15 ~vdd:1.2
       ~t_transition:1e-12 ());
  let r =
    Transient.simulate nl ~t_end:10e-9 ~dt:5e-12
      ~probes:[ Transient.Node_v output ]
  in
  let w = Transient.get r (Transient.Node_v output) in
  Alcotest.(check bool) "starts high" true
    (Rlc_waveform.Waveform.value_at w 0.9e-9 > 1.1);
  Alcotest.(check bool) "ends low" true
    (Rlc_waveform.Waveform.value_at w 9e-9 < 0.1);
  (* the input crosses vth = 0.6 at t = 3 ns *)
  (match
     Rlc_waveform.Measure.first_crossing ~direction:Rlc_waveform.Measure.Falling
       w ~level:0.6
   with
  | Some t -> check_close "switch time" 3e-9 t ~tol:0.1
  | None -> Alcotest.fail "no switching edge")

let test_transient_record_every () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl a Netlist.ground 1.0;
  let r =
    Transient.simulate
      ~config:{ Transient.Config.default with record_every = 10 }
      nl ~t_end:1e-6 ~dt:1e-9
      ~probes:[ Transient.Node_v a ]
  in
  Alcotest.(check int) "decimated samples" 101 (Array.length (Transient.time r))

let test_transient_validation () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl a Netlist.ground 1.0;
  Alcotest.check_raises "bad dt" (Invalid_argument "Transient.simulate: bad dt")
    (fun () ->
      ignore (Transient.simulate nl ~t_end:1.0 ~dt:2.0 ~probes:[]));
  Alcotest.check_raises "unknown probe"
    (Invalid_argument "Transient.simulate: unknown element zz") (fun () ->
      ignore
        (Transient.simulate nl ~t_end:1e-6 ~dt:1e-9
           ~probes:[ Transient.Branch_i "zz" ]))

let test_transient_be_vs_trap () =
  (* both integrators converge to the same RC answer *)
  let build () =
    let nl = Netlist.create () in
    let src = Netlist.fresh_node nl in
    let out = Netlist.fresh_node nl in
    Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
    Netlist.add_resistor nl src out 1e3;
    Netlist.add_capacitor nl out Netlist.ground 1e-9;
    (nl, out)
  in
  let value integration =
    let nl, out = build () in
    let r =
      Transient.simulate
        ~config:{ Transient.Config.default with integration }
        nl ~t_end:2e-6 ~dt:1e-9
        ~probes:[ Transient.Node_v out ]
    in
    Rlc_waveform.Waveform.value_at (Transient.get r (Transient.Node_v out)) 1e-6
  in
  check_close "be ~ trap"
    (value Transient.Backward_euler)
    (value Transient.Trapezoidal) ~tol:1e-3

(* ---------------- Ladder ---------------- *)

let test_ladder_structure () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1e-6; c = 100e-12; length = 0.01; segments = 4 }
    ~from_node:a ~to_node:b;
  (* 4 RL branches + 5 capacitors (cin + 4 shunts) *)
  Alcotest.(check int) "element count" 9 (Array.length (Netlist.elements nl));
  Alcotest.(check bool) "segment names" true
    (Netlist.find_element nl "line_seg0" <> None
    && Netlist.find_element nl "line_seg3" <> None);
  (* 3 internal joints *)
  Alcotest.(check int) "node count" 6 (Netlist.node_count nl)

let test_ladder_total_capacitance () =
  (* the shunt caps must sum exactly to c * length *)
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1e-6; c = 100e-12; length = 0.01; segments = 7 }
    ~from_node:a ~to_node:b;
  let total =
    Array.fold_left
      (fun acc e ->
        match e with
        | Netlist.Capacitor { farads; _ } -> acc +. farads
        | _ -> acc)
      0.0 (Netlist.elements nl)
  in
  check_close "total c" (100e-12 *. 0.01) total

let test_ladder_dc_resistance () =
  (* end-to-end DC resistance equals r * length *)
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1e-6; c = 100e-12; length = 0.01; segments = 8 }
    ~from_node:a ~to_node:b;
  Netlist.add_resistor nl b Netlist.ground 44.0 (* matched to line R *);
  let v = Dc.operating_point nl in
  check_close "divider with wire resistance" 0.5 v.(b) ~tol:1e-9

let test_ladder_delay_convergence () =
  (* ladder 50% delay converges as segments grow: successive
     refinements approach a limit *)
  let delay segments =
    let nl = Netlist.create () in
    let src = Netlist.fresh_node nl in
    let far = Netlist.fresh_node nl in
    Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
    let drv = Netlist.fresh_node nl in
    Netlist.add_resistor nl src drv 25.0;
    Ladder.make nl
      { Ladder.r = 4400.0; l = 1e-6; c = 123e-12; length = 0.011; segments }
      ~from_node:drv ~to_node:far;
    Netlist.add_capacitor nl far Netlist.ground 4e-13;
    let r =
      Transient.simulate nl ~t_end:1.2e-9 ~dt:2e-13
        ~probes:[ Transient.Node_v far ]
    in
    match
      Rlc_waveform.Measure.threshold_delay
        (Transient.get r (Transient.Node_v far))
        ~fraction:0.5 ~v_final:1.0
    with
    | Some d -> d
    | None -> Alcotest.fail "no crossing"
  in
  let d5 = delay 5 and d10 = delay 10 and d20 = delay 20 in
  Alcotest.(check bool) "refinement shrinks change" true
    (Float.abs (d20 -. d10) < Float.abs (d10 -. d5));
  Alcotest.(check bool) "within 5% at 10 vs 20 segments" true
    (Float.abs (d20 -. d10) < 0.05 *. d20)

let test_ladder_validation () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Alcotest.check_raises "segments" (Invalid_argument "Ladder.make: segments < 1")
    (fun () ->
      Ladder.make nl
        { Ladder.r = 1.0; l = 0.0; c = 1e-12; length = 1.0; segments = 0 }
        ~from_node:a ~to_node:b)

(* ---------------- Adaptive transient ---------------- *)

let build_ringer () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  let b = Netlist.fresh_node nl in
  Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_rl_branch nl a b ~ohms:10.0 ~henries:1e-6;
  Netlist.add_capacitor nl b Netlist.ground 1e-9;
  (nl, b)

let test_adaptive_matches_fixed () =
  let nl, b = build_ringer () in
  let fixed =
    Transient.simulate nl ~t_end:3e-6 ~dt:5e-11 ~probes:[ Transient.Node_v b ]
  in
  let nl2, b2 = build_ringer () in
  let adaptive =
    Transient.simulate_adaptive
      ~config:{ Transient.Config.default with rtol = 1e-4 }
      nl2 ~t_end:3e-6 ~dt_max:2e-7
      ~probes:[ Transient.Node_v b2 ]
  in
  let wf = Transient.get fixed (Transient.Node_v b) in
  let wa = Transient.get adaptive (Transient.Node_v b2) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "agree at %g" t)
        (Rlc_waveform.Waveform.value_at wf t)
        (Rlc_waveform.Waveform.value_at wa t)
        ~tol:2e-3)
    [ 2e-7; 5e-7; 1e-6; 2.5e-6 ];
  Alcotest.(check bool) "far fewer steps" true
    (Transient.steps_taken adaptive < Transient.steps_taken fixed / 20)

let test_adaptive_peak_accuracy () =
  let nl, b = build_ringer () in
  let r =
    Transient.simulate_adaptive
      ~config:{ Transient.Config.default with rtol = 1e-4 }
      nl ~t_end:3e-6 ~dt_max:2e-7
      ~probes:[ Transient.Node_v b ]
  in
  let w = Transient.get r (Transient.Node_v b) in
  let zeta = 10.0 /. 2.0 *. Float.sqrt (1e-9 /. 1e-6) in
  let exact_peak =
    1.0 +. Float.exp (-.Float.pi *. zeta /. Float.sqrt (1.0 -. (zeta *. zeta)))
  in
  check_close "peak" exact_peak
    (Rlc_numerics.Stats.max (Rlc_waveform.Waveform.values w))
    ~tol:2e-3

let test_adaptive_refines_on_edges () =
  (* an inverter switching mid-simulation forces error-control
     rollbacks (the step must shrink at the edge) *)
  let nl = Netlist.create () in
  let input = Netlist.fresh_node nl in
  let output = Netlist.fresh_node nl in
  Netlist.add_vsource nl input Netlist.ground
    (Stimulus.Step { v0 = 0.0; v1 = 1.2; t_delay = 4e-9; t_rise = 0.5e-9 });
  Netlist.add_inverter nl ~input ~output
    (Devices.inverter ~r_on:100.0 ~c_in:1e-15 ~c_out:50e-15 ~vdd:1.2
       ~t_transition:50e-12 ());
  let r =
    Transient.simulate_adaptive nl ~t_end:10e-9 ~dt_max:1e-9
      ~probes:[ Transient.Node_v output ]
  in
  Alcotest.(check bool) "edges cause rejections" true
    ((Transient.stats r).Transient.Stats.rejected_steps > 0);
  let w = Transient.get r (Transient.Node_v output) in
  Alcotest.(check bool) "output switched" true
    (Rlc_waveform.Waveform.value_at w 9.5e-9 < 0.1
    && Rlc_waveform.Waveform.value_at w 3e-9 > 1.1)

let test_adaptive_validation () =
  let nl, b = build_ringer () in
  ignore b;
  Alcotest.check_raises "bad tolerances"
    (Invalid_argument
       "Transient.simulate_adaptive: tolerances must be positive")
    (fun () ->
      ignore
        (Transient.simulate_adaptive
          ~config:{ Transient.Config.default with rtol = 0.0 }
          nl ~t_end:1e-6 ~dt_max:1e-8
           ~probes:[]))

(* ---------------- solver backends & engine regressions ---------------- *)

let rlc_ladder_spec segments =
  { Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12; length = 0.011; segments }

let test_banded_dense_agree_on_ladder () =
  (* the tentpole cross-check: identical trajectories from the dense
     and banded factorisations, to near machine precision *)
  let nl, _src, far = Ladder.driven_line (rlc_ladder_spec 40) in
  let run backend =
    Transient.simulate
      ~config:{ Transient.Config.default with backend }
      nl ~t_end:1.2e-9 ~dt:4e-13
      ~probes:[ Transient.Node_v far; Ladder.input_current_probe () ]
  in
  let rd = run Transient.Dense and rb = run Transient.Banded in
  let vd = Transient.final_voltages rd and vb = Transient.final_voltages rb in
  Array.iteri
    (fun node v ->
      check_close (Printf.sprintf "node %d" node) v vb.(node) ~tol:1e-12)
    vd;
  let wd = Transient.get rd (Ladder.input_current_probe ()) in
  let wb = Transient.get rb (Ladder.input_current_probe ()) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "input current at %g" t)
        (Rlc_waveform.Waveform.value_at wd t)
        (Rlc_waveform.Waveform.value_at wb t)
        ~tol:1e-12)
    [ 1e-10; 4e-10; 9e-10 ]

let test_banded_dense_agree_auto_backend () =
  (* Auto must pick the banded kernel on a long ladder and still match
     the forced-dense run; the far node of driven_line is numbered
     before the joints, so this also covers the RCM reordering *)
  let nl, _src, far = Ladder.driven_line (rlc_ladder_spec 64) in
  let run backend =
    Transient.simulate
      ~config:{ Transient.Config.default with backend }
      nl ~t_end:1e-9 ~dt:1e-12
      ~probes:[ Transient.Node_v far ]
  in
  let ra = run Transient.Auto and rd = run Transient.Dense in
  let wa = Transient.get ra (Transient.Node_v far) in
  let wd = Transient.get rd (Transient.Node_v far) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "far voltage at %g" t)
        (Rlc_waveform.Waveform.value_at wd t)
        (Rlc_waveform.Waveform.value_at wa t)
        ~tol:1e-12)
    [ 2e-10; 5e-10; 9e-10 ]

let test_banded_dense_agree_coupled () =
  (* coupled RL pairs stamp cross terms; the permuted banded assembly
     must reproduce them exactly *)
  let nl = Netlist.create () in
  let a1 = Netlist.fresh_node nl and a2 = Netlist.fresh_node nl in
  let b1 = Netlist.fresh_node nl and b2 = Netlist.fresh_node nl in
  Netlist.add_vsource nl a1 Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl a2 Netlist.ground 50.0;
  Netlist.add_resistor nl b1 Netlist.ground 50.0;
  Netlist.add_resistor nl b2 Netlist.ground 50.0;
  Ladder.make_coupled nl
    {
      Ladder.r = 1000.0;
      l_self = 1e-6;
      l_mutual = 0.4e-6;
      c_ground = 100e-12;
      c_coupling = 30e-12;
      length = 0.01;
      segments = 12;
    }
    ~from1:a1 ~to1:b1 ~from2:a2 ~to2:b2;
  let run backend =
    Transient.simulate
      ~config:{ Transient.Config.default with backend }
      nl ~t_end:2e-9 ~dt:2e-12
      ~probes:[ Transient.Branch_i "pair_seg5#1"; Transient.Branch_i "pair_seg5#2" ]
  in
  let rd = run Transient.Dense and rb = run Transient.Banded in
  List.iter
    (fun probe ->
      let wd = Transient.get rd probe and wb = Transient.get rb probe in
      List.iter
        (fun t ->
          check_close "coupled branch current"
            (Rlc_waveform.Waveform.value_at wd t)
            (Rlc_waveform.Waveform.value_at wb t)
            ~tol:1e-12)
        [ 5e-10; 1.5e-9 ])
    [ Transient.Branch_i "pair_seg5#1"; Transient.Branch_i "pair_seg5#2" ]

let test_vsource_probe_current () =
  (* regression: I(V1) used to silently read 0; the MNA solution holds
     the true source current, -V/R in a series V-R loop *)
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_vsource ~name:"V1" nl a Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor ~name:"R1" nl a Netlist.ground 2.0;
  let r =
    Transient.simulate nl ~t_end:1e-6 ~dt:1e-9
      ~probes:[ Transient.Branch_i "V1"; Transient.Branch_i "R1" ]
  in
  let wv = Transient.get r (Transient.Branch_i "V1") in
  let wr = Transient.get r (Transient.Branch_i "R1") in
  check_close "I(V1) = -V/R" (-0.5)
    (Rlc_waveform.Waveform.value_at wv 0.5e-6);
  check_close "I(R1) = V/R" 0.5 (Rlc_waveform.Waveform.value_at wr 0.5e-6);
  (* KCL at the node: the source supplies exactly the resistor draw *)
  check_close "KCL" 0.0
    (Rlc_waveform.Waveform.value_at wv 0.9e-6
    +. Rlc_waveform.Waveform.value_at wr 0.9e-6)

let test_fixed_step_factorization_count () =
  (* regression for the LU-cache key: a fixed-step trapezoidal run
     factorises exactly twice (backward-Euler first step + the rest);
     a backward-Euler run exactly once *)
  let nl, b = build_ringer () in
  ignore b;
  let r = Transient.simulate nl ~t_end:1e-6 ~dt:1e-9 ~probes:[] in
  Alcotest.(check int) "trapezoidal run" 2
    (Transient.stats r).Transient.Stats.lu_factorizations;
  let r_be =
    Transient.simulate
      ~config:
        { Transient.Config.default with integration = Transient.Backward_euler }
      nl ~t_end:1e-6 ~dt:1e-9 ~probes:[]
  in
  Alcotest.(check int) "backward-euler run" 1
    (Transient.stats r_be).Transient.Stats.lu_factorizations

let test_adaptive_two_dt_levels_reuse_cache () =
  (* regression for the (meth, dt)-keyed cache and the dt_max/2^k
     quantization: an adaptive run visits several dt levels (awkward
     t_end forces a final off-grid partial step) yet builds only a
     handful of factorisations, and still matches the fixed-step
     trajectory *)
  let nl, b = build_ringer () in
  let fixed =
    Transient.simulate nl ~t_end:2.83e-6 ~dt:5e-11
      ~probes:[ Transient.Node_v b ]
  in
  let nl2, b2 = build_ringer () in
  let adaptive =
    Transient.simulate_adaptive
      ~config:{ Transient.Config.default with rtol = 1e-4 }
      nl2 ~t_end:2.83e-6 ~dt_max:3e-7
      ~probes:[ Transient.Node_v b2 ]
  in
  let wf = Transient.get fixed (Transient.Node_v b) in
  let wa = Transient.get adaptive (Transient.Node_v b2) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "agree at %g" t)
        (Rlc_waveform.Waveform.value_at wf t)
        (Rlc_waveform.Waveform.value_at wa t)
        ~tol:2e-3)
    [ 2e-7; 9e-7; 2.5e-6 ];
  (* every dt is dt_max/2^k with k <= k_max = log2(4096), each of the
     13 levels costing at most one trapezoidal factorisation, plus the
     backward-Euler first step and the final partial step — the count
     is bounded by the level grid, not by the step count *)
  let n_factor = (Transient.stats adaptive).Transient.Stats.lu_factorizations in
  Alcotest.(check bool)
    (Printf.sprintf "bounded factorisations (%d)" n_factor)
    true (n_factor <= 13 + 2);
  Alcotest.(check bool) "cache reused across steps" true
    (Transient.steps_taken adaptive >= 5 * n_factor)

(* ---------------- adaptive accuracy vs fixed-step references ------------ *)

let with_recording f =
  let was = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Rlc_instr.Control.set_enabled was) f

(* An 11 mm, 24-segment line of the 100 nm node's r and c with
   inductance [l] (H/m), driven by a 200 ps ramp. *)
let ramp_ladder l =
  let nl, _src, far =
    Ladder.driven_line ~t_rise:200e-12
      { Ladder.r = 4400.0; l; c = 123.33e-12; length = 0.011; segments = 24 }
  in
  (nl, far)

(* The adaptive waveform must stay within 2% of the swing of a
   fixed-step trapezoidal reference at dt_max/256, which is trusted
   only when the dt_max/128 run stays within 0.5% of it; and every
   attempted step must cost exactly one advance. *)
let check_adaptive_accuracy (nl, node) ~t_end ~dt_max ~rtol () =
  let probe = Transient.Node_v node in
  let fixed dt =
    Transient.get (Transient.simulate nl ~t_end ~dt ~probes:[ probe ]) probe
  in
  let reference = fixed (dt_max /. 256.0) in
  let moved =
    Rlc_waveform.Measure.max_deviation_pct ~reference (fixed (dt_max /. 128.0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "reference trusted (moved %.3f%%)" moved)
    true (moved < 0.5);
  let advances = Rlc_instr.Metrics.counter "transient.advances" in
  let r, advanced =
    with_recording (fun () ->
        let before = Rlc_instr.Metrics.value advances in
        let r =
          Transient.simulate_adaptive
            ~config:{ Transient.Config.default with rtol }
            nl ~t_end ~dt_max ~probes:[ probe ]
        in
        (r, Rlc_instr.Metrics.value advances -. before))
  in
  let s = Transient.stats r in
  Alcotest.(check (float 0.0))
    "one advance per attempt"
    (float_of_int (s.Transient.Stats.steps + s.Transient.Stats.rejected_steps))
    advanced;
  let err =
    Rlc_waveform.Measure.max_deviation_pct ~reference (Transient.get r probe)
  in
  Alcotest.(check bool)
    (Printf.sprintf "within 2%% of swing (%.3f%%)" err)
    true (err <= 2.0)

let ladder_accuracy ~l ~rtol =
  check_adaptive_accuracy (ramp_ladder l) ~t_end:3e-9 ~dt_max:(3e-9 /. 32.0)
    ~rtol

let test_adaptive_forced_accepts () =
  (* an ideal step drive with dt_min only 4x below dt_max: steps still
     over tolerance at dt_min are accepted and counted, and the count
     reaches the registry *)
  let nl, _src, far = Ladder.driven_line (rlc_ladder_spec 8) in
  let dt_max = 1e-9 /. 32.0 in
  let forced = Rlc_instr.Metrics.counter "transient.forced_accepts" in
  let r, published =
    with_recording (fun () ->
        let before = Rlc_instr.Metrics.value forced in
        let r =
          Transient.simulate_adaptive
            ~config:
              { Transient.Config.default with dt_min = Some (dt_max /. 4.0) }
            nl ~t_end:1e-9 ~dt_max
            ~probes:[ Transient.Node_v far ]
        in
        (r, Rlc_instr.Metrics.value forced -. before))
  in
  let n = (Transient.stats r).Transient.Stats.forced_accepts in
  Alcotest.(check bool) (Printf.sprintf "forced accepts (%d)" n) true (n > 0);
  Alcotest.(check (float 0.0)) "published" (float_of_int n) published;
  let fixed =
    Transient.simulate nl ~t_end:1e-9 ~dt:dt_max
      ~probes:[ Transient.Node_v far ]
  in
  Alcotest.(check int) "none in a fixed-step run" 0
    (Transient.stats fixed).Transient.Stats.forced_accepts

(* A step into an inverter with a 1-pass fixed-point budget: the
   deck that exercises the nonconverged-commit path. *)
let inverter_step_deck () =
  let nl = Netlist.create () in
  let input = Netlist.fresh_node nl in
  let output = Netlist.fresh_node nl in
  Netlist.add_vsource ~name:"vin" nl input Netlist.ground
    (Stimulus.Step { v0 = 0.0; v1 = 1.2; t_delay = 2e-9; t_rise = 0.5e-9 });
  Netlist.add_inverter ~name:"inv" nl ~input ~output
    (Devices.inverter ~r_on:100.0 ~c_in:1e-15 ~c_out:50e-15 ~vdd:1.2
       ~t_transition:50e-12 ());
  (nl, output)

let test_nonconvergence_counter () =
  (* regression for the nonconvergence commit: when the inverter fixed
     point runs out of iterations the engine must keep the
     (solution, trial) pair consistent and report it *)
  let nl, output = inverter_step_deck () in
  let starved =
    Transient.simulate
      ~config:{ Transient.Config.default with max_state_iterations = 1 }
      nl ~t_end:6e-9 ~dt:5e-12
      ~probes:[ Transient.Node_v output ]
  in
  Alcotest.(check bool) "starved iteration is reported" true
    ((Transient.stats starved).Transient.Stats.nonconverged_steps > 0);
  (* the committed state stays physical: inverter output in rails *)
  Array.iter
    (fun v ->
      Alcotest.(check bool) "within rails" true (v >= -0.05 && v <= 1.25))
    (Transient.final_voltages starved);
  let nl2, output2 = inverter_step_deck () in
  let healthy =
    Transient.simulate nl2 ~t_end:6e-9 ~dt:5e-12
      ~probes:[ Transient.Node_v output2 ]
  in
  Alcotest.(check int) "default budget converges" 0
    (Transient.stats healthy).Transient.Stats.nonconverged_steps;
  let w = Transient.get healthy (Transient.Node_v output2) in
  Alcotest.(check bool) "output switched low" true
    (Rlc_waveform.Waveform.value_at w 5.5e-9 < 0.1)

(* The 11 mm line of the 100 nm node, ramp-driven. *)
let ramp_ladder ~l segments =
  Ladder.driven_line ~t_rise:200e-12
    { Ladder.r = 4400.0; l; c = 123.33e-12; length = 0.011; segments }

(* The MD5 of every bit a run reports: the time axis, each probe's
   samples, the stats record and the fixed-point histogram, as %h
   text. *)
let result_digest r probes =
  let buf = Buffer.create 4096 in
  let floats a = Array.iter (fun x -> Printf.bprintf buf "%h " x) a in
  floats (Transient.time r);
  List.iter
    (fun p -> floats (Rlc_waveform.Waveform.values (Transient.get r p)))
    probes;
  let s = Transient.stats r in
  Printf.bprintf buf "|%d %d %d %d %d|" s.Transient.Stats.steps
    s.rejected_steps s.forced_accepts s.nonconverged_steps
    s.lu_factorizations;
  Array.iter (Printf.bprintf buf "%d ") (Transient.state_iteration_histogram r);
  Digest.string (Buffer.contents buf)

(* The engine's waveforms are a pure function of the deck: this digest
   was recorded from the engine before its element loops were
   flattened, and any change to a float operation, or to the order the
   right-hand side accumulates in, moves it. *)
let transient_digest = "f03f2202b8af09bd15b797d100f0e974"

let test_transient_bits_pinned () =
  let digests = ref [] in
  let add r probes = digests := result_digest r probes :: !digests in
  let fixed nl ~t_end ~dt probes =
    List.iter
      (fun integration ->
        let config = { Transient.Config.default with integration } in
        add (Transient.simulate ~config nl ~t_end ~dt ~probes) probes)
      Transient.[ Trapezoidal; Backward_euler ]
  in
  let nl, _, far = ramp_ladder ~l:1.8e-6 40 in
  fixed nl ~t_end:2e-9 ~dt:1e-12
    Transient.[ Node_v far; Branch_i "line_seg0"; Branch_i "line_drv" ];
  List.iter
    (fun (file, extra) ->
      let deck = Parser.parse_file ("../examples/netlists/" ^ file) in
      let dt, t_end = Option.get deck.Parser.tran in
      let probes =
        deck.Parser.probes @ List.map (fun n -> Transient.Branch_i n) extra
      in
      fixed deck.Parser.netlist ~t_end ~dt probes)
    [
      ("coupled_pair.sp", [ "Ra"; "P1#1"; "P1#2"; "Ca"; "V1" ]);
      ("buffered_line.sp", [ "X1"; "X2"; "V1" ]);
    ];
  let nl, output = inverter_step_deck () in
  let probes = Transient.[ Node_v output; Branch_i "inv"; Branch_i "vin" ] in
  let config = { Transient.Config.default with max_state_iterations = 1 } in
  add (Transient.simulate ~config nl ~t_end:6e-9 ~dt:5e-12 ~probes) probes;
  List.iter
    (fun (segments, rtol) ->
      let nl, _, far = ramp_ladder ~l:1.5e-6 segments in
      let probes = Transient.[ Node_v far; Branch_i "line_seg0" ] in
      let config = { Transient.Config.default with rtol } in
      add
        (Transient.simulate_adaptive ~config nl ~t_end:3e-9
           ~dt_max:(3e-9 /. 32.0) ~probes)
        probes)
    [ (50, 1e-3); (50, 1e-4); (200, 1e-3); (200, 1e-4) ];
  Alcotest.(check string) "digest" transient_digest
    (Digest.to_hex (Digest.string (String.concat "" (List.rev !digests))))

(* A fixed step allocates nothing: the minor-heap words of a 5000-step
   run exceed those of a 1000-step run by nothing. *)
let test_fixed_step_allocates_nothing () =
  let nl, _, far = ramp_ladder ~l:1.8e-6 200 in
  let words steps =
    let before = Gc.minor_words () in
    ignore
      (Transient.simulate nl ~t_end:(float_of_int steps *. 1e-12) ~dt:1e-12
         ~probes:[ Transient.Node_v far ]);
    Gc.minor_words () -. before
  in
  let was = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled false;
  let extra =
    Fun.protect
      ~finally:(fun () -> Rlc_instr.Control.set_enabled was)
      (fun () -> words 5000 -. words 1000)
  in
  Alcotest.(check (float 0.0)) "minor words per extra step" 0.0
    (extra /. 4000.0)

(* ---------------- Parser ---------------- *)

let test_parser_values () =
  List.iter
    (fun (s, expect) ->
      check_close ("value " ^ s) expect (Parser.parse_value s))
    [
      ("4.4k", 4.4e3); ("100p", 1e-10); ("2.5pF", 2.5e-12); ("1meg", 1e6);
      ("1e-9", 1e-9); ("3mV", 3e-3); ("42", 42.0); ("1.5u", 1.5e-6);
      ("-0.6", -0.6); ("2n", 2e-9);
    ];
  List.iter
    (fun s ->
      match Parser.parse_value s with
      | exception Failure _ -> ()
      | v -> Alcotest.failf "expected failure for %S, got %g" s v)
    [ ""; "abc"; "1x" ]

let sample_deck = {|simple divider
* comment line
V1 in 0 DC 10
R1 in mid 6
R2 mid 0 4
C1 mid 0 1u
.tran 1u 10m
.probe v(mid) i(R1)
.end|}

let test_parser_deck_structure () =
  let deck = Parser.parse_string sample_deck in
  Alcotest.(check (option string)) "title" (Some "simple divider")
    deck.Parser.title;
  Alcotest.(check bool) "tran parsed" true
    (deck.Parser.tran = Some (1e-6, 1e-2));
  Alcotest.(check int) "probes" 2 (List.length deck.Parser.probes);
  Alcotest.(check int) "elements" 4
    (Array.length (Netlist.elements deck.Parser.netlist));
  Alcotest.(check bool) "node lookup" true
    (Parser.node_of_name deck "mid" <> None);
  Alcotest.(check bool) "ground lookup" true
    (Parser.node_of_name deck "0" = Some Netlist.ground);
  (match Parser.node_of_name deck "mid" with
  | Some n ->
      Alcotest.(check (option string)) "reverse lookup" (Some "mid")
        (Parser.name_of_node deck n)
  | None -> Alcotest.fail "mid must exist")

let test_parser_run_divider () =
  let deck = Parser.parse_string sample_deck in
  let r = Parser.run deck in
  match Parser.node_of_name deck "mid" with
  | Some n ->
      let w = Transient.get r (Transient.Node_v n) in
      (* RC settles to the 4/10 divider *)
      check_close "divider value" 4.0
        (Rlc_waveform.Waveform.value_at w 9e-3)
        ~tol:1e-3
  | None -> Alcotest.fail "mid node"

let test_parser_line_and_inverter_cards () =
  let text = {|W1 a b r=4.4k l=1.5u c=123p len=10m seg=4
V1 a 0 PULSE(0 1.2 0 10p 10p 1n 2n)
X1 b out INV r_on=15 c_in=400f c_out=2p vdd=1.2 ttr=30p
C1 out 0 10f
.tran 1p 4n
.probe v(out)|}
  in
  let deck = Parser.parse_string text in
  Alcotest.(check (option string)) "no title" None deck.Parser.title;
  (* W expands to 4 RL branches + 5 caps; plus V, X, C *)
  Alcotest.(check int) "elements" 12
    (Array.length (Netlist.elements deck.Parser.netlist));
  let r = Parser.run deck in
  let w =
    Transient.get r
      (Transient.Node_v (Option.get (Parser.node_of_name deck "out")))
  in
  (* the inverter must produce full-swing activity *)
  let lo, hi = Rlc_numerics.Stats.min_max (Rlc_waveform.Waveform.values w) in
  Alcotest.(check bool) "output toggles" true (lo < 0.2 && hi > 1.0)

let test_parser_coupled_card () =
  let text = {|P1 a1 b1 a2 b2 r=10 l=2n m=1n
V1 a1 0 DC 1
Rt a2 0 50
Ru b1 0 50
Rv b2 0 50
.tran 10p 10n
.probe i(P1#1) i(P1#2)|}
  in
  let deck = Parser.parse_string text in
  let r = Parser.run deck in
  let i1 = Transient.get r (Transient.Branch_i "P1#1") in
  let i2 = Transient.get r (Transient.Branch_i "P1#2") in
  (* steady state: branch 1 carries 1V/(10+50) ohms; branch 2 idles *)
  check_close "driven branch current" (1.0 /. 60.0)
    (Rlc_waveform.Waveform.value_at i1 9e-9)
    ~tol:1e-3;
  Alcotest.(check bool) "victim branch settles to ~0" true
    (Float.abs (Rlc_waveform.Waveform.value_at i2 9e-9) < 1e-6)

let test_parser_errors () =
  let check_error text expected_line =
    match Parser.parse_string text with
    | exception Parser.Parse_error (line, _) ->
        Alcotest.(check int) "error line" expected_line line
    | _ -> Alcotest.fail "expected a parse error"
  in
  check_error "R1 a 0\n" 1;
  check_error "* ok\nQ1 a b c 1k\n" 2;
  check_error "V1 a 0 DC 1\n.tran 1\n" 2;
  check_error "W1 a b r=1 c=1 len=1\n" 1 (* missing l= *);
  (* an unknown probe node: the line of its .probe card *)
  check_error
    "V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\n.tran 1p 1n\n.probe v(b)\n\
     .probe v(nowhere)\n"
    6

(* probe targets follow the card-node rule: any case of "gnd" is
   ground *)
let test_parser_probe_gnd () =
  let deck =
    Parser.parse_string "V1 a 0 DC 1\nR1 a GND 1k\n.probe v(GND) v(A)\n"
  in
  match deck.Parser.probes with
  | [ Transient.Node_v g; Transient.Node_v a ] ->
      Alcotest.(check int) "v(GND) is ground" Netlist.ground g;
      Alcotest.(check (option int)) "v(A) is node a"
        (Parser.node_of_name deck "a") (Some a)
  | _ -> Alcotest.fail "expected two node probes"

(* a W card's joints follow the card-node rule: a probe resolves them
   in any case, and a card naming one, before or after the W card,
   joins it; its elements keep the card's case *)
let test_parser_w_joint_names () =
  let deck =
    Parser.parse_string
      "V1 in 0 DC 1\nR0 W1_n2 0 2k\n\
       W1 in far r=4.4k l=1.5u c=123p len=10m seg=4\nR1 W1_n1 0 1k\n\
       .probe v(W1_n1) v(w1_n1) v(W1_N3)\n"
  in
  let nl = deck.Parser.netlist in
  (match deck.Parser.probes with
  | [ Transient.Node_v upper; Transient.Node_v lower; Transient.Node_v n3 ] ->
      Alcotest.(check int) "either case, one node" lower upper;
      Alcotest.(check (option int)) "joint 3" (Parser.node_of_name deck "w1_n3")
        (Some n3)
  | _ -> Alcotest.fail "expected three node probes");
  (* ground, in, far and the three joints: R0 and R1 made none *)
  Alcotest.(check int) "nodes" 6 (Netlist.node_count nl);
  let joint k = Parser.node_of_name deck (Printf.sprintf "w1_n%d" k) in
  let ends name =
    match Netlist.find_element nl name with
    | Some id -> begin
        match (Netlist.elements nl).(id) with
        | Netlist.Resistor { a; _ } -> Some a
        | Netlist.Rl_branch { b; _ } -> Some b
        | _ -> None
      end
    | None -> Alcotest.failf "no element %s" name
  in
  Alcotest.(check (option int)) "R1 on joint 1" (joint 1) (ends "R1");
  Alcotest.(check (option int)) "R0 on joint 2" (joint 2) (ends "R0");
  Alcotest.(check (option int)) "W1_seg0 ends on joint 1" (joint 1)
    (ends "W1_seg0");
  Alcotest.(check (option int)) "element names keep their case" None
    (Netlist.find_element nl "w1_seg0")

(* name lookups read the deck's netlist, so they survive edits to it *)
let test_parser_names_after_edit () =
  let deck = Parser.parse_string sample_deck in
  let nl = deck.Parser.netlist in
  let mid = Option.get (Parser.node_of_name deck "mid") in
  Netlist.add_resistor ~name:"Rx" nl mid Netlist.ground 1e3;
  Alcotest.(check (option int)) "node_of_name after an edit" (Some mid)
    (Parser.node_of_name deck "MID");
  Alcotest.(check (option string)) "name_of_node after an edit" (Some "mid")
    (Parser.name_of_node deck mid);
  let extra = Netlist.fresh_node ~name:"extra" nl in
  Alcotest.(check (option int)) "a node added by name" (Some extra)
    (Parser.node_of_name deck "Extra")

(* live heap in MB once garbage is gone: OCaml 5.1 reports a block freed
   only a couple of major cycles after it died, and a compaction that
   does not lower the count can still precede one that does, so compact
   until two readings in a row agree (at most 10 compactions) *)
let live_mb () =
  let live () =
    Gc.compact ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let rec settle prev tries =
    let words = live () in
    if words = prev || tries = 0 then words else settle words (tries - 1)
  in
  float_of_int (settle (live ()) 10 * (Sys.word_size / 8)) /. 1048576.0

(* a parsed deck is garbage once dropped: nothing global keeps it *)
let test_parser_retains_nothing () =
  let parse_all first =
    for i = first to first + 49 do
      let text =
        Printf.sprintf
          "V1 in 0 DC 1\nW%d in far r=4.4k l=1.5u c=123p len=%dm seg=400\n\
           .tran 1p 1n\n.probe v(far)\n"
          i (i + 1)
      in
      ignore (Sys.opaque_identity (Parser.parse_string text))
    done
  in
  parse_all 0;
  let before = live_mb () in
  parse_all 50;
  let after = live_mb () in
  if after -. before > 0.5 then
    Alcotest.failf "50 parsed decks left %.2f MB live" (after -. before)

let test_parser_run_requires_tran () =
  let deck = Parser.parse_string "R1 a 0 1k\nV1 a 0 DC 1\n.probe v(a)\n" in
  Alcotest.check_raises "no tran"
    (Invalid_argument "Parser.run: deck has no .tran card") (fun () ->
      ignore (Parser.run deck))

let test_parser_ac_card () =
  let deck =
    Parser.parse_string
      "V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.ac dec 10 1meg 1g\n.probe \
       v(out)\n"
  in
  (match deck.Parser.ac with
  | Some spec ->
      Alcotest.(check int) "points per decade" 10 spec.Parser.points_per_decade;
      check_close "fstart" 1e6 spec.Parser.fstart;
      check_close "fstop" 1e9 spec.Parser.fstop
  | None -> Alcotest.fail ".ac card must populate deck.ac");
  (* the sweep request feeds Ac.decade_grid directly *)
  let grid =
    Ac.decade_grid
      ~points_per_decade:(Option.get deck.Parser.ac).Parser.points_per_decade
      ~fstart:(Option.get deck.Parser.ac).Parser.fstart
      ~fstop:(Option.get deck.Parser.ac).Parser.fstop
  in
  Alcotest.(check int) "grid size" 31 (Array.length grid);
  (* malformed cards *)
  List.iter
    (fun text ->
      match Parser.parse_string text with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected a parse error for %S" text)
    [
      ".ac lin 10 1e6 1e9\n";
      ".ac dec 0 1e6 1e9\n";
      ".ac dec 10 0 1e9\n";
      ".ac dec 10 1e9 1e6\n";
      ".ac dec 10 1e6\n";
    ]

(* ---------------- Parser against its reference ---------------- *)

(* What a parse gives, in a form compared byte for byte: the elements
   (floats by their bits, through Marshal), every node and element
   name, the analysis cards, the probes, the title and the structural
   signature; or the error it raised. *)
type parse_outcome =
  | Deck of string * string
  | Error_at of int * string
  | Raised of string

let netlist_outcome nl tran ac probes title =
  let nodes = List.init (Netlist.node_count nl) (Netlist.node_name nl) in
  let elems = Netlist.elements nl in
  let names = List.init (Array.length elems) (Netlist.element_name nl) in
  Deck
    ( Marshal.to_string (elems, nodes, names, tran, ac, probes, title) [],
      Netlist.structural_signature nl )

let scanner_outcome text =
  match Parser.parse_string text with
  | d ->
      netlist_outcome d.Parser.netlist d.Parser.tran
        (Option.map
           (fun a -> Parser.(a.points_per_decade, a.fstart, a.fstop))
           d.Parser.ac)
        d.Parser.probes d.Parser.title
  | exception Parser.Parse_error (line, msg) -> Error_at (line, msg)
  | exception e -> Raised (Printexc.to_string e)

let reference_outcome text =
  match Ref_parser.parse_string text with
  | d ->
      netlist_outcome d.Ref_parser.netlist d.Ref_parser.tran
        (Option.map
           (fun a ->
             Ref_parser.(a.points_per_decade, a.fstart, a.fstop))
           d.Ref_parser.ac)
        d.Ref_parser.probes d.Ref_parser.title
  | exception Ref_parser.Parse_error (line, msg) -> Error_at (line, msg)
  | exception e -> Raised (Printexc.to_string e)

let show_outcome = function
  | Deck (_, signature) -> "deck " ^ signature
  | Error_at (line, msg) -> Printf.sprintf "line %d: %s" line msg
  | Raised e -> "raised " ^ e

(* Random decks over every card kind, in mixed case, with tabs, CRLF
   line ends, '$' and ';' comments, parens and commas, SPICE suffixes,
   a title or a card on the first line, and malformed cards. *)
module Deck_gen = struct
  open QCheck2.Gen

  let mixcase s =
    map
      (fun bits ->
        String.mapi
          (fun i c ->
            if bits land (1 lsl (i mod 20)) <> 0 then Char.uppercase_ascii c
            else c)
          s)
      (int_bound 0xfffff)

  let node =
    oneofl [ "a"; "b"; "out"; "in"; "n1"; "n_2_3"; "0"; "gnd"; "mid"; "far" ]
    >>= mixcase

  let digits_g = map (fun (p, f) -> Printf.sprintf "%.*g" p f)
  let precise = pair (int_range 1 19) (float_range 1e-3 1e3)

  let mantissa =
    frequency
      [
        (4, map string_of_int (int_range 1 999));
        (4, map (Printf.sprintf "%.3g") (float_range 0.01 100.0));
        (2, digits_g precise);
        (2, map (Printf.sprintf "%.4e") (float_range 1e-3 1e3));
        ( 3,
          oneofl
            [
              ".5"; "5."; "+2"; "-0.6"; "1e-9"; "2.5E+3"; "1.2345678901234567";
              "12345678901234567890"; "0.000000000000000000000123"; "1e30";
              "7e-25"; "1e400"; "00012"; "-0"; "3e22"; "1e23"; "4.5e23";
              "12e21"; "7e-23"; "4.e-3"; "1E-21"; "123456789012345";
              "1234567890123456"; "0.1234567890123456e5";
            ] );
      ]

  let suffix =
    oneofl
      [
        ""; ""; ""; "f"; "p"; "n"; "u"; "m"; "k"; "meg"; "MEG"; "Meg"; "g";
        "t"; "pF"; "nH"; "V"; "ohm"; "x"; "mil";
      ]

  let good_suffix =
    oneofl
      [
        ""; ""; ""; "f"; "p"; "n"; "u"; "m"; "k"; "meg"; "MEG"; "g"; "pF";
        "nH"; "V"; "ohm";
      ]

  let good_mantissa =
    oneof
      [
        map string_of_int (int_range 1 999);
        map (Printf.sprintf "%.3g") (float_range 0.01 100.0);
        digits_g precise;
        oneofl
          [
            ".5"; "5."; "+2"; "1e-9"; "2.5E+3"; "1.2345678901234567"; "00012";
            "4.e-3";
          ];
      ]

  (* [bad] decks draw from every value, malformed ones included, and
     damage their cards; the others are well formed *)
  let value bad =
    if bad then
      frequency
        [
          (10, map2 ( ^ ) mantissa suffix);
          ( 1,
            oneofl
              [ "abc"; "1.2.3"; "--1"; "e5"; "."; "1e"; "+"; "1e.5"; "0x10" ] );
        ]
    else map2 ( ^ ) good_mantissa good_suffix

  let name letter =
    map2 (fun l k -> l ^ string_of_int k) (mixcase letter) (int_range 1 300)

  let kv key v = map2 (fun k v -> k ^ "=" ^ v) (mixcase key) v

  let seg =
    frequency
      [
        (8, map string_of_int (int_range 1 4)); (1, oneofl [ "2.7"; "x"; "0" ]);
      ]

  (* a card's tokens, sometimes with one dropped or one extra *)
  let damage bad toks =
    if not bad then pure toks
    else
      let drop i =
        let k = 1 + (i mod max 1 (List.length toks - 1)) in
        List.filteri (fun j _ -> j <> k) toks
      in
      frequency
        [
          (6, pure toks);
          (1, map drop nat);
          ( 1,
            map
              (fun v -> toks @ [ v ])
              (oneof [ value bad; kv "foo" (value bad); node ]) );
        ]

  let card bad =
    let value = value bad in
    let two_terminal =
      triple
        (oneofl [ "R"; "C"; "L"; "r"; "c"; "l" ] >>= name)
        (pair node node) value
    in
    let pair_kvs =
      if bad then flatten_l [ kv "r" value; kv "l" value; kv "m" value ]
      else
        flatten_l
          [
            kv "r" value; kv "l" (pure "2n");
            kv "m" (oneofl [ "0"; "0.5n"; "1.9n" ]);
          ]
    in
    let waveform =
      oneof
        [
          map (fun v -> [ "DC"; v ]) value;
          (if bad then
             map (fun vs -> ("PULSE(" :: vs) @ [ ")" ]) (list_repeat 7 value)
           else pure [ "PULSE(0"; "1.2"; "0"; "10p"; "10p"; "1n"; "2n)" ]);
          pure [ "pulse"; "0"; "1"; "0"; "10p"; "10p"; "1n"; "2n" ];
          pure [ "PWL(0"; "0"; "1n"; "1"; "2n"; "0)" ];
          map (fun vs -> "pwl" :: vs) (list_size (int_range 0 5) value);
          (if bad then pure [ "SIN"; "0"; "1" ] else pure [ "dc"; "1" ]);
        ]
    in
    let inverter_kvs =
      flatten_l
        [
          kv "r_on" value; kv "c_in" value; kv "c_out" value;
          kv "vdd" (if bad then value else pure "1.2");
        ]
      >>= fun kvs ->
      map
        (fun extra -> kvs @ extra)
        (oneofl [ []; [ "vth=0.5" ]; [ "ttr=30p" ]; [ "VTH=0.4"; "ttr=1p" ] ])
    in
    let tran =
      let ok = map2 (fun dt t -> [ ".tran"; dt; t ]) value value in
      if bad then oneof [ ok; pure [ ".tran"; "1x"; "abc" ] ] else ok
    in
    let ac =
      map2
        (fun n (f1, f2) -> [ ".ac"; "dec"; n; f1; f2 ])
        (oneofl (if bad then [ "10"; "0"; "2.5" ] else [ "10"; "2.5" ]))
        (if bad then pair value value else pure ("1meg", "10g"))
    in
    let probe =
      map
        (fun ps -> ".probe" :: List.concat ps)
        (list_size (int_range 0 3)
           (frequency
              [
                (6, map (fun n -> [ "v(" ^ n ^ ")" ]) node);
                (2, map (fun n -> [ "i(" ^ n ^ ")" ]) (name "R"));
                ((if bad then 1 else 0), oneofl [ [ "v" ]; [ "q(a)" ] ]);
              ]))
    in
    let other =
      if bad then
        oneofl
          [
            [ ".END"; "x" ]; [ ".option"; "rshunt=1e12" ];
            [ "Q1"; "a"; "b"; "1k" ];
          ]
      else oneofl [ [ ".end" ]; [ "*"; "comment" ] ]
    in
    frequency
      [
        (6, map (fun (n, (a, b), v) -> [ n; a; b; v ]) two_terminal);
        ( 2,
          map2
            (fun (n, a, b) kvs -> n :: a :: b :: kvs)
            (triple (name "b") node node)
            (flatten_l [ kv "r" value; kv "l" value ] >>= shuffle_l) );
        ( 2,
          map2
            (fun (n, a, b) kvs -> n :: a :: b :: kvs)
            (triple (name "w") node node)
            (flatten_l
               [
                 kv "r" value; kv "l" value; kv "c" value; kv "len" value;
                 kv "seg" seg;
               ]
            >>= shuffle_l) );
        ( 1,
          map2
            (fun (n, (a1, b1), (a2, b2)) kvs -> [ n; a1; b1; a2; b2 ] @ kvs)
            (triple (name "p") (pair node node) (pair node node))
            pair_kvs );
        ( 3,
          map2
            (fun (n, a, b) wave -> n :: a :: b :: wave)
            (triple (oneofl [ "V"; "I"; "v" ] >>= name) node node)
            waveform );
        ( 1,
          map2
            (fun (n, a, b) kvs -> n :: a :: b :: "INV" :: kvs)
            (triple (name "x") node node)
            inverter_kvs );
        (1, tran);
        (1, ac);
        (1, probe);
        (1, other);
      ]
    >>= damage bad

  let sep bad =
    frequency
      [
        (10, pure " "); (2, pure "  "); ((if bad then 1 else 0), pure "\t");
        (1, pure ", "); (1, pure " ( ");
      ]

  let rec join bad = function
    | [] -> pure ""
    | [ t ] -> pure t
    | t :: rest -> map2 (fun s r -> t ^ s ^ r) (sep bad) (join bad rest)

  let line bad =
    frequency
      [
        (12, card bad >>= join bad);
        (1, pure "");
        (1, pure "   ");
        (1, map (fun c -> "* " ^ c) (oneofl [ "comment"; "R1 a b 1k" ]));
      ]
    >>= fun l ->
    map2
      (fun tail lead -> lead ^ l ^ tail)
      (frequency
         [
           (8, pure ""); (1, pure " $ trailing"); (1, pure "; note");
           (1, pure "\t");
         ])
      (frequency [ (8, pure ""); (1, pure "  "); (1, pure "\t") ])

  let first_line bad =
    frequency
      [
        ( 2,
          oneofl
            [
              "rc lowpass demo"; "RESISTOR test 5"; "r a b"; "a deck: v(out)";
              ""; "R1 5"; "rc filter 1k"; "vin in 0 x=1"; "Lowpass, 2 poles";
              "w line len 1mil";
            ] );
        (3, line bad);
      ]

  let deck =
    frequency [ (3, pure false); (1, pure true) ] >>= fun bad ->
    map2
      (fun (first, lines) (crlf, last_nl) ->
        let eol = if crlf then "\r\n" else "\n" in
        String.concat eol (first :: lines) ^ if last_nl then eol else "")
      (pair (first_line bad) (list_size (int_range 0 14) (line bad)))
      (pair bool bool)
end

let parser_matches_reference =
  QCheck2.Test.make ~name:"scanner matches the reference parser" ~count:3000
    ~print:String.escaped Deck_gen.deck (fun text ->
      let got = scanner_outcome text and want = reference_outcome text in
      got = want
      || QCheck2.Test.fail_reportf "scanner: %s\nreference: %s"
           (show_outcome got) (show_outcome want))

let value_matches_reference =
  QCheck2.Test.make ~name:"parse_value matches the reference bit for bit"
    ~count:3000 ~print:String.escaped
    QCheck2.Gen.(
      map2
        (fun v pad -> pad ^ v ^ pad)
        (Deck_gen.value true)
        (oneofl [ ""; " "; "\t" ]))
    (fun s ->
      let bits f =
        match f s with
        | v -> Ok (Int64.bits_of_float v)
        | exception Failure m -> Error m
      in
      bits Parser.parse_value = bits Ref_parser.parse_value)

(* the decks under examples/netlists and the benchmark's deck shapes *)
let test_parser_matches_reference_on_decks () =
  let dir = "../examples/netlists" in
  let files =
    List.concat_map
      (fun d ->
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".sp")
        |> List.map (Filename.concat d))
      [ dir; Filename.concat dir "bad" ]
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let grid =
    let b = Buffer.create 4096 in
    Buffer.add_string b "* rc grid\nV1 n_0_0 0 DC 1\n";
    for r = 0 to 5 do
      for c = 0 to 5 do
        if c < 5 then
          Printf.bprintf b "Rh%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c r (c + 1) 10.3;
        if r < 5 then
          Printf.bprintf b "Rv%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c (r + 1) c 12.1;
        Printf.bprintf b "C%d_%d n_%d_%d 0 %.6gp\n" r c r c 0.517
      done
    done;
    Buffer.add_string b "Rload n_5_5 0 1000\n.end\n";
    Buffer.contents b
  in
  List.iter
    (fun (what, text) ->
      let got = scanner_outcome text and want = reference_outcome text in
      if got <> want then
        Alcotest.failf "%s: scanner %s, reference %s" what (show_outcome got)
          (show_outcome want))
    (("grid", grid) :: List.map (fun f -> (f, read f)) files)

(* ---------------- Writer ---------------- *)

let build_mixed_netlist () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl and b = Netlist.fresh_node nl in
  let c = Netlist.fresh_node nl and d = Netlist.fresh_node nl in
  Netlist.add_vsource ~name:"Vin" nl a Netlist.ground
    (Stimulus.Pulse
       { v0 = 0.0; v1 = 1.2; t_delay = 1e-10; t_rise = 1e-11; t_high = 1e-9;
         t_fall = 2e-11; period = 3e-9 });
  Netlist.add_resistor ~name:"Rdrv" nl a b 25.0;
  Netlist.add_rl_branch ~name:"line_seg0" nl b c ~ohms:48.0 ~henries:1.6e-8;
  Netlist.add_capacitor nl c Netlist.ground 1e-12;
  Netlist.add_coupled_rl ~name:"Pxy" nl ~a1:b ~b1:c ~a2:a ~b2:d ~ohms:10.0
    ~henries:2e-9 ~mutual:0.5e-9;
  Netlist.add_isource ~name:"Ibias" nl d Netlist.ground (Stimulus.Dc 1e-6);
  Netlist.add_inverter ~name:"Xrx" nl ~input:c ~output:d
    (Devices.inverter ~r_on:15.0 ~c_in:4e-13 ~c_out:2e-12 ~vdd:1.2
       ~t_transition:3e-11 ());
  nl

let test_writer_roundtrip_structure () =
  let nl = build_mixed_netlist () in
  let text = Writer.netlist_to_string ~title:"roundtrip" nl in
  let deck = Parser.parse_string text in
  Alcotest.(check bool) "elements preserved" true
    (Netlist.elements nl = Netlist.elements deck.Parser.netlist)

let test_writer_fixed_point () =
  let nl = build_mixed_netlist () in
  let text1 = Writer.netlist_to_string nl in
  let deck1 = Parser.parse_string text1 in
  let text2 = Writer.netlist_to_string deck1.Parser.netlist in
  let deck2 = Parser.parse_string text2 in
  Alcotest.(check string) "emission is a fixed point" text2
    (Writer.netlist_to_string deck2.Parser.netlist)

let test_writer_stimulus_strings () =
  Alcotest.(check string) "dc" "DC 3.3"
    (Writer.stimulus_to_string (Stimulus.Dc 3.3));
  Alcotest.(check string) "pwl" "PWL(0 0 1e-09 1.2)"
    (Writer.stimulus_to_string (Stimulus.Pwl [ (0.0, 0.0); (1e-9, 1.2) ]));
  (* a Step becomes an equivalent PWL *)
  let step =
    Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = 1e-9; t_rise = 1e-9 }
  in
  let emitted = Writer.stimulus_to_string step in
  let reparsed =
    Parser.parse_string
      (Printf.sprintf "V1 a 0 %s\nR1 a 0 1k\n" emitted)
  in
  (match (Netlist.elements reparsed.Parser.netlist).(0) with
  | Netlist.Vsource { stim; _ } ->
      List.iter
        (fun t ->
          check_close
            (Printf.sprintf "step ~ pwl at %g" t)
            (Stimulus.eval step t) (Stimulus.eval stim t))
        [ 0.0; 1.5e-9; 3e-9 ]
  | _ -> Alcotest.fail "expected a source")

let test_parser_b_card () =
  let deck = Parser.parse_string "B1 a 0 r=10 l=2n\nV1 a 0 DC 1\n" in
  match (Netlist.elements deck.Parser.netlist).(0) with
  | Netlist.Rl_branch { ohms; henries; _ } ->
      check_close "r" 10.0 ohms;
      check_close "l" 2e-9 henries
  | _ -> Alcotest.fail "expected an RL branch"

let () =
  Alcotest.run "rlc_circuit"
    [
      ( "stimulus",
        [
          Alcotest.test_case "dc" `Quick test_stimulus_dc;
          Alcotest.test_case "step" `Quick test_stimulus_step;
          Alcotest.test_case "pulse" `Quick test_stimulus_pulse;
          Alcotest.test_case "pwl" `Quick test_stimulus_pwl;
          Alcotest.test_case "square wave" `Quick test_stimulus_square_wave;
          Alcotest.test_case "validation" `Quick test_stimulus_validation;
        ] );
      ( "devices",
        [
          Alcotest.test_case "inverter logic" `Quick test_devices_inverter;
          Alcotest.test_case "of_driver" `Quick test_devices_of_driver;
          Alcotest.test_case "validation" `Quick test_devices_validation;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "nodes" `Quick test_netlist_nodes;
          Alcotest.test_case "elements" `Quick test_netlist_elements;
          Alcotest.test_case "validation" `Quick test_netlist_validation;
          Alcotest.test_case "validation names the node" `Quick
            test_netlist_validation_names_node;
          Alcotest.test_case "duplicate names" `Quick
            test_netlist_duplicate_names;
        ] );
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "inductor short" `Quick test_dc_inductor_short;
          Alcotest.test_case "initial conditions" `Quick
            test_dc_initial_conditions;
          Alcotest.test_case "inverter" `Quick test_dc_inverter_chain;
          Alcotest.test_case "factored system & sensitivity" `Quick
            test_dc_system_reuse;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc charge" `Quick test_transient_rc_charge;
          Alcotest.test_case "rl current" `Quick test_transient_rl_current;
          Alcotest.test_case "rlc ringing" `Quick test_transient_rlc_ringing;
          Alcotest.test_case "charge sharing" `Quick
            test_transient_capacitor_conservation;
          Alcotest.test_case "inverter switching" `Quick
            test_transient_inverter_switches;
          Alcotest.test_case "record decimation" `Quick
            test_transient_record_every;
          Alcotest.test_case "validation" `Quick test_transient_validation;
          Alcotest.test_case "be vs trapezoidal" `Quick
            test_transient_be_vs_trap;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "structure" `Quick test_ladder_structure;
          Alcotest.test_case "total capacitance" `Quick
            test_ladder_total_capacitance;
          Alcotest.test_case "dc resistance" `Quick test_ladder_dc_resistance;
          Alcotest.test_case "delay convergence" `Slow
            test_ladder_delay_convergence;
          Alcotest.test_case "validation" `Quick test_ladder_validation;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "matches fixed step" `Quick
            test_adaptive_matches_fixed;
          Alcotest.test_case "peak accuracy" `Quick
            test_adaptive_peak_accuracy;
          Alcotest.test_case "refines on switching edges" `Quick
            test_adaptive_refines_on_edges;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
          Alcotest.test_case "forced accepts at dt_min" `Quick
            test_adaptive_forced_accepts;
        ] );
      ( "adaptive-accuracy",
        [
          Alcotest.test_case "rc-dominated ladder, rtol 1e-3" `Quick
            (ladder_accuracy ~l:0.1e-6 ~rtol:1e-3);
          Alcotest.test_case "rc-dominated ladder, rtol 1e-4" `Quick
            (ladder_accuracy ~l:0.1e-6 ~rtol:1e-4);
          Alcotest.test_case "l-dominated ladder, rtol 1e-3" `Quick
            (ladder_accuracy ~l:1.5e-6 ~rtol:1e-3);
          Alcotest.test_case "l-dominated ladder, rtol 1e-4" `Quick
            (ladder_accuracy ~l:1.5e-6 ~rtol:1e-4);
          Alcotest.test_case "ringer, rtol 1e-4" `Quick
            (check_adaptive_accuracy (build_ringer ()) ~t_end:3e-6
               ~dt_max:2e-7 ~rtol:1e-4);
        ] );
      ( "solver-backends",
        [
          Alcotest.test_case "banded = dense on rlc ladder" `Quick
            test_banded_dense_agree_on_ladder;
          Alcotest.test_case "auto picks banded on long ladder" `Quick
            test_banded_dense_agree_auto_backend;
          Alcotest.test_case "banded = dense on coupled pair" `Quick
            test_banded_dense_agree_coupled;
        ] );
      ( "engine-regressions",
        [
          Alcotest.test_case "vsource probe current" `Quick
            test_vsource_probe_current;
          Alcotest.test_case "fixed-step factorisation count" `Quick
            test_fixed_step_factorization_count;
          Alcotest.test_case "adaptive dt quantization bounds cache" `Quick
            test_adaptive_two_dt_levels_reuse_cache;
          Alcotest.test_case "nonconvergence is counted & consistent" `Quick
            test_nonconvergence_counter;
          Alcotest.test_case "waveform bits pinned" `Quick
            test_transient_bits_pinned;
          Alcotest.test_case "fixed step allocates nothing" `Quick
            test_fixed_step_allocates_nothing;
        ] );
      ( "parser",
        [
          Alcotest.test_case "value suffixes" `Quick test_parser_values;
          Alcotest.test_case "deck structure" `Quick
            test_parser_deck_structure;
          Alcotest.test_case "runs a divider" `Quick test_parser_run_divider;
          Alcotest.test_case "line & inverter cards" `Quick
            test_parser_line_and_inverter_cards;
          Alcotest.test_case "coupled card" `Quick test_parser_coupled_card;
          Alcotest.test_case "error reporting" `Quick test_parser_errors;
          Alcotest.test_case "run requires .tran" `Quick
            test_parser_run_requires_tran;
          Alcotest.test_case ".ac card" `Quick test_parser_ac_card;
          Alcotest.test_case "B card" `Quick test_parser_b_card;
          Alcotest.test_case "probe of GND" `Quick test_parser_probe_gnd;
          Alcotest.test_case "W joints follow the node rule" `Quick
            test_parser_w_joint_names;
          Alcotest.test_case "names after a netlist edit" `Quick
            test_parser_names_after_edit;
          Alcotest.test_case "parsed decks are not retained" `Quick
            test_parser_retains_nothing;
          Alcotest.test_case "scanner matches the reference on decks" `Quick
            test_parser_matches_reference_on_decks;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            parser_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            value_matches_reference;
        ] );
      ( "writer",
        [
          Alcotest.test_case "round-trip structure" `Quick
            test_writer_roundtrip_structure;
          Alcotest.test_case "fixed point" `Quick test_writer_fixed_point;
          Alcotest.test_case "stimulus emission" `Quick
            test_writer_stimulus_strings;
        ] );
    ]
