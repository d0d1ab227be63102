(* Tests for rlc_extraction: geometry, resistance, capacitance and
   inductance models, validated against the paper's Table 1 values and
   basic physical monotonicity. *)

open Approx

open Rlc_extraction

let g250 = Rlc_tech.Presets.node_250nm.Rlc_tech.Node.geometry
let g100 = Rlc_tech.Presets.node_100nm.Rlc_tech.Node.geometry

(* ---------------- Geometry ---------------- *)

let test_geometry_accessors () =
  check_close "spacing" (Geometry.um 2.0) (Geometry.spacing g250);
  check_close "aspect ratio" 1.25 (Geometry.aspect_ratio g250);
  check_close "area" (Geometry.um 2.0 *. Geometry.um 2.5)
    (Geometry.cross_section_area g250)

let test_geometry_validation () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Geometry.make: width must be positive") (fun () ->
      ignore
        (Geometry.make ~width:0.0 ~pitch:1.0 ~thickness:1.0 ~t_ins:1.0
           ~eps_r:1.0));
  Alcotest.check_raises "pitch <= width"
    (Invalid_argument "Geometry.make: pitch must exceed width") (fun () ->
      ignore
        (Geometry.make ~width:2e-6 ~pitch:2e-6 ~thickness:1e-6 ~t_ins:1e-6
           ~eps_r:1.0))

(* ---------------- Resistance ---------------- *)

let test_resistance_copper () =
  (* bulk copper 2um x 2.5um: 1.72e-8 / 5e-12 = 3.44 ohm/mm; the paper
     quotes 4.4 ohm/mm (barrier/temperature derating), so our bulk
     value must land within ~30% below it *)
  let r = Resistance.per_length g250 in
  check_close "bulk value" 3.44e3 r ~tol:1e-3;
  Alcotest.(check bool)
    "within 30% of paper" true
    (r > 0.7 *. Rlc_tech.Presets.node_250nm.Rlc_tech.Node.r
    && r < Rlc_tech.Presets.node_250nm.Rlc_tech.Node.r)

let test_resistance_temperature () =
  let r25 = Resistance.with_temperature ~t_celsius:25.0 g250 in
  let r100 = Resistance.with_temperature ~t_celsius:100.0 g250 in
  check_close "25C matches base" (Resistance.per_length g250) r25;
  Alcotest.(check bool) "hotter is more resistive" true (r100 > r25);
  check_close "tcr 3.9e-3" (r25 *. (1.0 +. (3.9e-3 *. 75.0))) r100

let test_resistance_total () =
  check_close "total over 1cm"
    (Resistance.per_length g250 *. 0.01)
    (Resistance.total g250 ~length:0.01)

(* ---------------- Capacitance ---------------- *)

let test_capacitance_orderings () =
  let pp = Capacitance.parallel_plate g250 in
  let ground = Capacitance.meijs_fokkema_ground g250 in
  Alcotest.(check bool) "fringe adds" true (ground > pp);
  let coupling = Capacitance.sakurai_coupling g250 in
  Alcotest.(check bool) "coupling positive" true (coupling > 0.0);
  let quiet = Capacitance.total ~miller:1.0 g250 in
  check_close "total = ground + 2x coupling" (ground +. (2.0 *. coupling))
    quiet

let test_capacitance_vs_paper () =
  (* the analytic models must bracket the paper's FASTCAP value within
     the Miller switching range *)
  List.iter
    (fun (g, c_paper) ->
      let best, worst = Capacitance.miller_range g in
      Alcotest.(check bool)
        (Printf.sprintf "paper %.3g within [%.3g, %.3g]" c_paper best worst)
        true
        (c_paper > best && c_paper < worst))
    [
      (g250, Rlc_tech.Presets.node_250nm.Rlc_tech.Node.c);
      (g100, Rlc_tech.Presets.node_100nm.Rlc_tech.Node.c);
    ]

let test_capacitance_miller_bounds () =
  Alcotest.check_raises "miller > 2"
    (Invalid_argument "Capacitance.total: miller must be in [0,2]") (fun () ->
      ignore (Capacitance.total ~miller:3.0 g250))

let prop_capacitance_monotone_in_eps =
  QCheck2.Test.make ~name:"capacitance scales linearly with eps_r" ~count:100
    QCheck2.Gen.(float_range 1.0 10.0)
    (fun eps_r ->
      let g =
        Geometry.make ~width:2e-6 ~pitch:4e-6 ~thickness:2.5e-6 ~t_ins:14e-6
          ~eps_r
      in
      let g1 =
        Geometry.make ~width:2e-6 ~pitch:4e-6 ~thickness:2.5e-6 ~t_ins:14e-6
          ~eps_r:1.0
      in
      let ratio = Capacitance.total g /. Capacitance.total g1 in
      Float.abs (ratio -. eps_r) < 1e-9 *. eps_r)

let prop_coupling_decreases_with_spacing =
  QCheck2.Test.make ~name:"coupling falls as spacing grows" ~count:100
    QCheck2.Gen.(pair (float_range 2.5 6.0) (float_range 1.05 2.0))
    (fun (pitch_um, factor) ->
      let mk pitch =
        Geometry.make ~width:2e-6 ~pitch:(pitch *. 1e-6) ~thickness:2.5e-6
          ~t_ins:14e-6 ~eps_r:3.3
      in
      Capacitance.sakurai_coupling (mk (pitch_um *. factor))
      < Capacitance.sakurai_coupling (mk pitch_um))

(* ---------------- Inductance ---------------- *)

let test_inductance_microstrip () =
  (* both nodes sit ~15um over the substrate: loop inductance well
     below 1 nH/mm and positive *)
  let l = Inductance.microstrip_loop g250 in
  Alcotest.(check bool) "positive" true (l > 0.0);
  Alcotest.(check bool) "sub nH/mm" true (l < 1e-6)

let test_inductance_partial_self_grows () =
  let l1 = Inductance.partial_self g250 ~length:1e-3 in
  let l2 = Inductance.partial_self g250 ~length:1e-2 in
  Alcotest.(check bool) "grows with length" true (l2 > l1);
  (* logarithmic growth: doubling the length adds ~ mu0/2pi * ln 2 per
     unit length (the wt/3l end-correction is negligible at cm scale) *)
  let l4 = Inductance.partial_self g250 ~length:2e-2 in
  check_close "log growth" (2e-7 *. Float.log 2.0) (l4 -. l2) ~tol:1e-2

let test_inductance_loop_monotone_in_return_distance () =
  let near =
    Inductance.loop_with_return g250 ~return_distance:5e-6 ~length:1e-2
  in
  let far =
    Inductance.loop_with_return g250 ~return_distance:50e-6 ~length:1e-2
  in
  Alcotest.(check bool) "farther return = more inductance" true (far > near)

let test_inductance_worst_case_bound () =
  (* the paper's stated bound: worst case < 5 nH/mm for both nodes at
     their optimal repeater spacing *)
  List.iter
    (fun node ->
      let rc = Rlc_core.Rc_opt.optimize node in
      let l =
        Inductance.worst_case node.Rlc_tech.Node.geometry
          ~length:rc.Rlc_core.Rc_opt.h_opt
      in
      Alcotest.(check bool)
        (node.Rlc_tech.Node.name ^ " worst case < 5 nH/mm")
        true
        (l < 5e-6 && l > 0.1e-6))
    Rlc_tech.Presets.all

let test_inductance_validation () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Inductance: non-positive length") (fun () ->
      ignore (Inductance.partial_self g250 ~length:0.0));
  Alcotest.check_raises "bad distance"
    (Invalid_argument "Inductance.mutual_parallel: d <= 0") (fun () ->
      ignore (Inductance.mutual_parallel ~d:0.0 ~length:1.0))

let test_mutual_less_than_self () =
  let self = Inductance.partial_self g250 ~length:1e-2 in
  let mutual = Inductance.mutual_parallel ~d:4e-6 ~length:1e-2 in
  Alcotest.(check bool) "mutual < self" true (mutual < self);
  Alcotest.(check bool) "mutual positive" true (mutual > 0.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "rlc_extraction"
    [
      ( "geometry",
        [
          Alcotest.test_case "accessors" `Quick test_geometry_accessors;
          Alcotest.test_case "validation" `Quick test_geometry_validation;
        ] );
      ( "resistance",
        [
          Alcotest.test_case "copper bulk" `Quick test_resistance_copper;
          Alcotest.test_case "temperature" `Quick test_resistance_temperature;
          Alcotest.test_case "total" `Quick test_resistance_total;
        ] );
      ( "capacitance",
        [
          Alcotest.test_case "model orderings" `Quick
            test_capacitance_orderings;
          Alcotest.test_case "brackets paper values" `Quick
            test_capacitance_vs_paper;
          Alcotest.test_case "miller bounds" `Quick
            test_capacitance_miller_bounds;
        ] );
      qsuite "capacitance-properties"
        [ prop_capacitance_monotone_in_eps; prop_coupling_decreases_with_spacing ];
      ( "inductance",
        [
          Alcotest.test_case "microstrip loop" `Quick
            test_inductance_microstrip;
          Alcotest.test_case "partial self grows" `Quick
            test_inductance_partial_self_grows;
          Alcotest.test_case "loop monotone in return" `Quick
            test_inductance_loop_monotone_in_return_distance;
          Alcotest.test_case "worst case < 5 nH/mm" `Quick
            test_inductance_worst_case_bound;
          Alcotest.test_case "validation" `Quick test_inductance_validation;
          Alcotest.test_case "mutual < self" `Quick test_mutual_less_than_self;
        ] );
    ]
