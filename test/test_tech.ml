(* Tests for rlc_tech: units, driver model, node presets (Table 1). *)

open Approx

open Rlc_tech

(* ---------------- Units ---------------- *)

let test_units_forward () =
  check_close "ohm/mm" 4400.0 (Units.ohm_per_mm 4.4);
  check_close "pF/m" 203.5e-12 (Units.pf_per_m 203.5);
  check_close "nH/mm" 5e-6 (Units.nh_per_mm 5.0);
  check_close "fF" 1.6314e-15 (Units.ff 1.6314);
  check_close "kohm" 11784.0 (Units.kohm 11.784);
  check_close "mm" 0.0144 (Units.mm 14.4);
  check_close "um" 2e-6 (Units.um 2.0);
  check_close "ps" 305.17e-12 (Units.ps 305.17)

let test_units_roundtrip () =
  check_close "nH/mm roundtrip" 3.7 (Units.to_nh_per_mm (Units.nh_per_mm 3.7));
  check_close "mm roundtrip" 14.4 (Units.to_mm (Units.mm 14.4));
  check_close "ps roundtrip" 305.17 (Units.to_ps (Units.ps 305.17))

(* ---------------- Driver ---------------- *)

let test_driver_scaling () =
  let d = Driver.make ~rs:10000.0 ~c0:1e-15 ~cp:4e-15 in
  check_close "rs/k" 100.0 (Driver.scaled_rs d ~k:100.0);
  check_close "cp*k" 4e-13 (Driver.scaled_cp d ~k:100.0);
  check_close "c0*k" 1e-13 (Driver.scaled_c0 d ~k:100.0);
  check_close "intrinsic" 5e-11 (Driver.intrinsic_delay d)

let test_driver_validation () =
  Alcotest.check_raises "bad rs"
    (Invalid_argument "Driver.make: parameters must be positive") (fun () ->
      ignore (Driver.make ~rs:0.0 ~c0:1e-15 ~cp:1e-15));
  let d = Driver.make ~rs:1.0 ~c0:1e-15 ~cp:1e-15 in
  Alcotest.check_raises "bad k"
    (Invalid_argument "Driver: repeater size k must be positive") (fun () ->
      ignore (Driver.scaled_rs d ~k:0.0))

let test_driver_intrinsic_scaling_claim () =
  (* Section 3.1 of the paper: the driver intrinsic RC shrinks with
     scaling, which is the root cause of inductance susceptibility *)
  let d250 = Presets.node_250nm.Node.driver in
  let d100 = Presets.node_100nm.Node.driver in
  Alcotest.(check bool)
    "intrinsic delay shrinks" true
    (Driver.intrinsic_delay d100 < 0.5 *. Driver.intrinsic_delay d250)

(* ---------------- Node / Presets ---------------- *)

let test_node_table1_values () =
  let n = Presets.node_250nm in
  check_close "r" 4400.0 n.Node.r;
  check_close "c" 203.5e-12 n.Node.c;
  check_close "vdd" 2.5 n.Node.vdd;
  check_close "rs" 11784.0 n.Node.driver.Driver.rs;
  check_close "c0" 1.6314e-15 n.Node.driver.Driver.c0;
  check_close "cp" 6.2474e-15 n.Node.driver.Driver.cp;
  check_close "l_max" 5e-6 n.Node.l_max;
  let m = Presets.node_100nm in
  check_close "100nm c" 123.33e-12 m.Node.c;
  check_close "100nm rs" 7534.0 m.Node.driver.Driver.rs

let test_node_threshold () =
  check_close "vdd/2" 1.25 (Node.switching_threshold Presets.node_250nm);
  check_close "vdd/2 100nm" 0.6 (Node.switching_threshold Presets.node_100nm)

let test_with_capacitance () =
  let ab = Presets.node_100nm_250nm_dielectric in
  check_close "ablation c" 203.5e-12 ab.Node.c;
  check_close "driver unchanged" 7534.0 ab.Node.driver.Driver.rs;
  Alcotest.(check string) "renamed" "100nm-c250" ab.Node.name

let test_find () =
  Alcotest.(check bool) "finds 250nm" true (Presets.find "250nm" <> None);
  Alcotest.(check bool) "finds 100nm" true (Presets.find "100nm" <> None);
  Alcotest.(check bool)
    "finds ablation" true
    (Presets.find "100nm-c250" <> None);
  Alcotest.(check bool) "unknown" true (Presets.find "65nm" = None)

let test_node_validation () =
  Alcotest.check_raises "bad vdd" (Invalid_argument "Node.make: vdd <= 0")
    (fun () ->
      ignore
        (Node.make ~name:"x" ~feature_nm:100.0 ~vdd:0.0 ~r:1.0 ~c:1.0
           ~geometry:Presets.node_100nm.Node.geometry
           ~driver:Presets.node_100nm.Node.driver ()))

let test_geometry_matches_table1 () =
  let g = Presets.node_250nm.Node.geometry in
  check_close "width" 2e-6 g.Rlc_extraction.Geometry.width;
  check_close "pitch" 4e-6 g.Rlc_extraction.Geometry.pitch;
  check_close "thickness" 2.5e-6 g.Rlc_extraction.Geometry.thickness;
  check_close "tins" 13.9e-6 g.Rlc_extraction.Geometry.t_ins;
  check_close "eps_r" 3.3 g.Rlc_extraction.Geometry.eps_r;
  let g1 = Presets.node_100nm.Node.geometry in
  check_close "100nm tins" 15.4e-6 g1.Rlc_extraction.Geometry.t_ins;
  check_close "100nm eps_r" 2.0 g1.Rlc_extraction.Geometry.eps_r

let () =
  Alcotest.run "rlc_tech"
    [
      ( "units",
        [
          Alcotest.test_case "forward" `Quick test_units_forward;
          Alcotest.test_case "roundtrip" `Quick test_units_roundtrip;
        ] );
      ( "driver",
        [
          Alcotest.test_case "scaling" `Quick test_driver_scaling;
          Alcotest.test_case "validation" `Quick test_driver_validation;
          Alcotest.test_case "intrinsic shrinks with node" `Quick
            test_driver_intrinsic_scaling_claim;
        ] );
      ( "presets",
        [
          Alcotest.test_case "table 1 values" `Quick test_node_table1_values;
          Alcotest.test_case "switching threshold" `Quick test_node_threshold;
          Alcotest.test_case "capacitance ablation" `Quick
            test_with_capacitance;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "validation" `Quick test_node_validation;
          Alcotest.test_case "geometry matches table 1" `Quick
            test_geometry_matches_table1;
        ] );
    ]
