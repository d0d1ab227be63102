(* Tests for rlc_tree: tree structure, RLC moments (validated against
   hand calculations and the paper's b1/b2), and van Ginneken buffer
   insertion (validated against exhaustive search). *)

open Approx

open Rlc_tree

let node100 = Rlc_tech.Presets.node_100nm
let driver100 = node100.Rlc_tech.Node.driver

let simple_wire = Tree.wire ~r:100.0 ~l:0.0 ~c:1e-12

let small_tree () =
  Tree.node ~name:"root"
    [
      ( simple_wire,
        Tree.node ~name:"j"
          [
            (simple_wire, Tree.sink ~name:"a" ~cap:5e-15);
            (Tree.wire ~r:200.0 ~l:0.0 ~c:2e-12, Tree.sink ~name:"b" ~cap:1e-15);
          ] );
    ]

(* ---------------- Tree ---------------- *)

let test_tree_structure () =
  let t = small_tree () in
  Alcotest.(check int) "size" 3 (Tree.size t);
  Alcotest.(check int) "depth" 2 (Tree.depth t);
  Alcotest.(check bool) "finds sink" true (Tree.find_sink t "a");
  Alcotest.(check bool) "missing sink" true (not (Tree.find_sink t "zz"));
  Alcotest.(check (list (pair string (float 1e-20))))
    "sinks"
    [ ("a", 5e-15); ("b", 1e-15) ]
    (Tree.sinks t)

let test_tree_totals () =
  let t = small_tree () in
  check_close "total cap" (1e-12 +. 1e-12 +. 2e-12 +. 5e-15 +. 1e-15)
    (Tree.total_cap t);
  match Tree.total_wire t with
  | Some w ->
      check_close "total r" 400.0 w.Tree.r;
      check_close "total c" 4e-12 w.Tree.c
  | None -> Alcotest.fail "expected wire totals"

let test_tree_validation () =
  Alcotest.check_raises "empty node"
    (Invalid_argument "Tree.node: empty branch list") (fun () ->
      ignore (Tree.node []));
  Alcotest.check_raises "bad wire" (Invalid_argument "Tree.wire: r <= 0")
    (fun () -> ignore (Tree.wire ~r:0.0 ~l:0.0 ~c:0.0));
  let dup =
    Tree.node
      [
        (simple_wire, Tree.sink ~name:"x" ~cap:0.0);
        (simple_wire, Tree.sink ~name:"x" ~cap:0.0);
      ]
  in
  Alcotest.check_raises "duplicate sinks"
    (Invalid_argument "Tree.sinks: duplicate sink name x") (fun () ->
      ignore (Tree.sinks dup))

let test_tree_segment_edges () =
  let t = small_tree () in
  let seg =
    Tree.segment_edges ~max_segment:(Tree.wire ~r:50.0 ~l:0.0 ~c:1e-9) t
  in
  (* each 100-ohm edge splits in 2, the 200-ohm edge in 4 *)
  Alcotest.(check int) "segmented size" 8 (Tree.size seg);
  (* totals preserved *)
  (match (Tree.total_wire t, Tree.total_wire seg) with
  | Some a, Some b ->
      check_close "r preserved" a.Tree.r b.Tree.r;
      check_close "c preserved" a.Tree.c b.Tree.c
  | _ -> Alcotest.fail "totals");
  check_close "cap preserved" (Tree.total_cap t) (Tree.total_cap seg)

let test_tree_map_wires () =
  let t = small_tree () in
  let doubled = Tree.map_wires (fun w -> { w with Tree.r = 2.0 *. w.Tree.r }) t in
  match Tree.total_wire doubled with
  | Some w -> check_close "doubled r" 800.0 w.Tree.r
  | None -> Alcotest.fail "totals"

(* ---------------- Moments ---------------- *)

let test_moments_single_rc () =
  (* driver Rs into wire (R, C) ending in sink CL:
     Elmore = Rs (C + CL) + R (C/2 + CL) *)
  let rs = 50.0 and r = 100.0 and c = 1e-12 and cl = 2e-13 in
  let t =
    Tree.node ~name:"root" [ (Tree.wire ~r ~l:0.0 ~c, Tree.sink ~name:"s" ~cap:cl) ]
  in
  match Moments.compute ~driver_rs:rs t with
  | [ sm ] ->
      check_close "elmore" ((rs *. (c +. cl)) +. (r *. ((c /. 2.0) +. cl)))
        sm.Moments.b1;
      Alcotest.(check bool) "rc tree: b2 >= 0" true (sm.Moments.b2 >= 0.0)
  | _ -> Alcotest.fail "one sink expected"

let test_moments_lumped_rlc () =
  (* single lumped RLC: H = 1/(1 + (R+Rs) C s + L C s^2) with all cap at
     the sink: b2 must equal L*C exactly *)
  let rs = 50.0 and r = 100.0 and l = 1e-9 and cl = 1e-12 in
  let t =
    Tree.node ~name:"root"
      [ (Tree.wire ~r ~l ~c:1e-30, Tree.sink ~name:"s" ~cap:cl) ]
  in
  match Moments.compute ~driver_rs:rs t with
  | [ sm ] ->
      check_close "b1" ((rs +. r) *. cl) sm.Moments.b1 ~tol:1e-9;
      check_close "b2 = LC" (l *. cl) sm.Moments.b2 ~tol:1e-9
  | _ -> Alcotest.fail "one sink expected"

let test_moments_match_stage () =
  (* a finely segmented chain must reproduce the paper's b1/b2 *)
  let l = 1.5e-6 in
  let stage = Rlc_core.Rc_opt.stage node100 ~l in
  let cs = Rlc_core.Pade.coeffs stage in
  let segs = 64 in
  let seg_len = stage.Rlc_core.Stage.h /. float_of_int segs in
  let wires =
    List.init segs (fun _ ->
        Tree.wire_of_line stage.Rlc_core.Stage.line ~length:seg_len)
  in
  let tree = Tree.chain ~sink_cap:(Rlc_core.Stage.cl stage) wires in
  match
    Moments.compute ~driver_cp:(Rlc_core.Stage.cp stage)
      ~driver_rs:(Rlc_core.Stage.rs stage) tree
  with
  | [ sm ] ->
      check_close "b1 matches stage" cs.Rlc_core.Pade.b1 sm.Moments.b1
        ~tol:1e-9;
      check_close "b2 matches stage" cs.Rlc_core.Pade.b2 sm.Moments.b2
        ~tol:1e-3
  | _ -> Alcotest.fail "one sink expected"

let test_moments_inductance_only_in_b2 () =
  let mk l =
    Tree.node ~name:"root"
      [ (Tree.wire ~r:100.0 ~l ~c:1e-12, Tree.sink ~name:"s" ~cap:1e-13) ]
  in
  let get l =
    match Moments.compute ~driver_rs:50.0 (mk l) with
    | [ sm ] -> sm
    | _ -> Alcotest.fail "one sink"
  in
  let a = get 0.0 and b = get 1e-9 in
  check_close "b1 unaffected by l" a.Moments.b1 b.Moments.b1;
  Alcotest.(check bool) "b2 grows with l" true (b.Moments.b2 > a.Moments.b2)

let test_moments_farther_sink_slower () =
  let t = small_tree () in
  match Moments.compute ~driver_rs:20.0 t with
  | [ a; b ] ->
      (* sink b is behind the larger wire *)
      Alcotest.(check bool) "b slower" true (b.Moments.b1 > a.Moments.b1);
      let crit = Moments.critical_sink [ a; b ] in
      Alcotest.(check string) "critical sink" "b" crit.Moments.name
  | _ -> Alcotest.fail "two sinks expected"

let test_moments_sink_delay () =
  let sm =
    { Moments.name = "x"; m1 = -1e-10; m2 = 8e-21; b1 = 1e-10; b2 = 2e-21 }
  in
  let tau = Moments.sink_delay sm in
  check_close "consistent with Delay.of_coeffs"
    (Rlc_core.Delay.of_coeffs { Rlc_core.Pade.b1 = 1e-10; b2 = 2e-21 })
    tau

(* ---------------- Buffering ---------------- *)

let test_wire_delay_limits () =
  let rc = Tree.wire ~r:100.0 ~l:0.0 ~c:1e-12 in
  check_close "rc limit = ln2 * elmore"
    (Float.log 2.0 *. 100.0 *. ((0.5e-12) +. 1e-13))
    (Buffering.wire_delay rc ~load:1e-13);
  let rlc = Tree.wire ~r:100.0 ~l:1e-9 ~c:1e-12 in
  Alcotest.(check bool) "inductance changes the delay" true
    (Buffering.wire_delay rlc ~load:1e-13
    <> Buffering.wire_delay rc ~load:1e-13)

let test_buffer_delay_model () =
  check_close "buffer delay"
    (Float.log 2.0
    *. ((driver100.Rlc_tech.Driver.rs *. driver100.Rlc_tech.Driver.cp)
       +. (driver100.Rlc_tech.Driver.rs *. 1e-12 /. 100.0)))
    (Buffering.buffer_delay driver100 ~k:100.0 ~load:1e-12)

let test_buffering_improves_long_chain () =
  let line = Rlc_core.Line.of_node node100 ~l:1.5e-6 in
  let wires = List.init 8 (fun _ -> Tree.wire_of_line line ~length:0.008) in
  let tree = Tree.chain ~sink_cap:(driver100.Rlc_tech.Driver.c0 *. 400.0) wires in
  let plan = Buffering.insert ~driver:driver100 ~root_k:400.0 tree in
  Alcotest.(check bool) "buffers inserted" true (plan.Buffering.buffers <> []);
  Alcotest.(check bool) "delay improves substantially" true
    (plan.Buffering.worst_delay < 0.7 *. plan.Buffering.unbuffered_delay)

let test_buffering_dp_matches_exhaustive () =
  (* tiny tree, tiny size menu: enumerate all assignments *)
  let line = Rlc_core.Line.of_node node100 ~l:1e-6 in
  let w len = Tree.wire_of_line line ~length:len in
  let tree =
    Tree.node ~name:"n0"
      [
        ( w 0.006,
          Tree.node ~name:"n1"
            [
              (w 0.006, Tree.sink ~name:"a" ~cap:3e-13);
              (w 0.009, Tree.sink ~name:"b" ~cap:2e-13);
            ] );
      ]
  in
  let sizes = [ 100.0; 300.0 ] in
  let plan = Buffering.insert ~sizes ~driver:driver100 ~root_k:300.0 tree in
  (* exhaustive: each of n0, n1 gets None or one of the sizes *)
  let choices = None :: List.map (fun k -> Some k) sizes in
  let best = ref infinity in
  List.iter
    (fun c0 ->
      List.iter
        (fun c1 ->
          let buffers =
            List.filter_map
              (fun (n, c) -> Option.map (fun k -> (n, k)) c)
              [ ("n0", c0); ("n1", c1) ]
          in
          let d =
            Buffering.evaluate ~driver:driver100 ~root_k:300.0 ~buffers tree
          in
          if d < !best then best := d)
        choices)
    choices;
  check_rel "dp equals exhaustive optimum" !best plan.Buffering.worst_delay
    ~tol:1e-9

let test_buffering_plan_evaluates_consistently () =
  let line = Rlc_core.Line.of_node node100 ~l:2e-6 in
  let wires = List.init 5 (fun _ -> Tree.wire_of_line line ~length:0.01) in
  let tree = Tree.chain ~sink_cap:2e-13 wires in
  let plan = Buffering.insert ~driver:driver100 ~root_k:500.0 tree in
  let d =
    Buffering.evaluate ~driver:driver100 ~root_k:500.0
      ~buffers:plan.Buffering.buffers tree
  in
  check_close "evaluate(plan) = dp result" plan.Buffering.worst_delay d
    ~tol:1e-12

let test_buffering_validation () =
  let tree = small_tree () in
  Alcotest.check_raises "empty sizes"
    (Invalid_argument "Buffering.insert: empty size list") (fun () ->
      ignore (Buffering.insert ~sizes:[] ~driver:driver100 ~root_k:100.0 tree));
  Alcotest.check_raises "unknown buffer site"
    (Invalid_argument "Buffering.evaluate: unknown node zz") (fun () ->
      ignore
        (Buffering.evaluate ~driver:driver100 ~root_k:100.0
           ~buffers:[ ("zz", 100.0) ]
           tree))

let test_buffering_inductance_awareness () =
  (* the same net buffered under an RC model vs an RLC model: painting
     inductance on must not reduce the DP's achievable delay *)
  let mk l =
    let line = Rlc_core.Line.of_node node100 ~l in
    Tree.chain ~sink_cap:2e-13
      (List.init 6 (fun _ -> Tree.wire_of_line line ~length:0.008))
  in
  let d l =
    (Buffering.insert ~driver:driver100 ~root_k:400.0 (mk l))
      .Buffering.worst_delay
  in
  Alcotest.(check bool) "inductive net is slower" true (d 2e-6 > d 0.0)

(* ---------------- Awe ---------------- *)

let test_awe_single_pole () =
  (* H = 1/(1+s): m_i = (-1)^i *)
  let moments = [| 1.0; -1.0; 1.0; -1.0 |] in
  let m = Awe.reduce ~moments ~order:1 in
  Alcotest.(check bool) "stable" true m.Awe.stable;
  (match m.Awe.poles with
  | [ p ] -> check_close "pole at -1" (-1.0) (Rlc_numerics.Cx.re p)
  | _ -> Alcotest.fail "one pole");
  check_close "v(1) = 1 - e^-1" (1.0 -. Float.exp (-1.0)) (Awe.step_eval m 1.0)
    ~tol:1e-9;
  check_close "50% delay = ln 2" (Float.log 2.0) (Awe.delay m) ~tol:1e-9

let test_awe_two_pole_exact () =
  (* H = 1/(1+3s+2s^2), poles -1/2 and -1:
     taylor 1/D: m1 = -3, m2 = 9-2 = 7, m3 = -(27 - 2*3*2) = -15 *)
  let moments = [| 1.0; -3.0; 7.0; -15.0 |] in
  let m = Awe.reduce ~moments ~order:2 in
  Alcotest.(check bool) "stable" true m.Awe.stable;
  let res = List.sort compare (List.map Rlc_numerics.Cx.re m.Awe.poles) in
  (match res with
  | [ p1; p2 ] ->
      check_close "pole -1" (-1.0) p1 ~tol:1e-9;
      check_close "pole -1/2" (-0.5) p2 ~tol:1e-9
  | _ -> Alcotest.fail "two poles");
  (* exact step response of 1/((1+s)(1+2s)): 1 - 2 e^{-t/2} + e^{-t} *)
  let exact t = 1.0 -. (2.0 *. Float.exp (-.t /. 2.0)) +. Float.exp (-.t) in
  List.iter
    (fun t -> check_close (Printf.sprintf "v(%g)" t) (exact t)
        (Awe.step_eval m t) ~tol:1e-9)
    [ 0.5; 1.0; 3.0 ]

let test_awe_moment_matching () =
  (* the reduced model must reproduce its input moments:
     m_k = - sum_i res_i / p_i^k for k >= 1 *)
  let stage = Rlc_core.Rc_opt.stage node100 ~l:2e-6 in
  let seg_len = stage.Rlc_core.Stage.h /. 32.0 in
  let wires =
    List.init 32 (fun _ ->
        Tree.wire_of_line stage.Rlc_core.Stage.line ~length:seg_len)
  in
  let tree = Tree.chain ~sink_cap:(Rlc_core.Stage.cl stage) wires in
  let moments =
    match
      Moments.voltage_moments ~driver_cp:(Rlc_core.Stage.cp stage)
        ~driver_rs:(Rlc_core.Stage.rs stage) ~order:5 tree
    with
    | [ (_, ms) ] -> ms
    | _ -> Alcotest.fail "one sink"
  in
  let q = 3 in
  let m = Awe.reduce ~moments ~order:q in
  for k = 1 to (2 * q) - 1 do
    let reconstructed =
      List.fold_left2
        (fun acc p res ->
          let open Rlc_numerics.Cx in
          acc -. re (res /: pow p (of_float (float_of_int k))))
        0.0 m.Awe.poles m.Awe.residues
    in
    check_close
      (Printf.sprintf "moment %d matched" k)
      moments.(k) reconstructed ~tol:1e-6
  done

let test_awe_accuracy_improves_with_order () =
  (* higher stable orders track the third-order analytic model better
     than order 1 does *)
  let stage = Rlc_core.Rc_opt.stage node100 ~l:2e-6 in
  let reference = Rlc_core.Third_order.delay_stage stage in
  let err q =
    let m = Awe.of_stage ~order:q stage in
    if not m.Awe.stable then infinity
    else Float.abs ((Awe.delay m /. reference) -. 1.0)
  in
  Alcotest.(check bool) "q2 beats q1" true (err 2 < err 1);
  Alcotest.(check bool) "q4 close to reference" true (err 4 < 0.05)

let test_awe_validation () =
  Alcotest.check_raises "short moments"
    (Invalid_argument "Awe.reduce: need moments up to 2*order - 1") (fun () ->
      ignore (Awe.reduce ~moments:[| 1.0; -1.0 |] ~order:2));
  Alcotest.check_raises "bad m0" (Invalid_argument "Awe.reduce: m_0 must be 1")
    (fun () ->
      ignore (Awe.reduce ~moments:[| 2.0; -1.0; 1.0; -1.0 |] ~order:2))

let test_awe_of_tree_multisink () =
  let line = Rlc_core.Line.of_node node100 ~l:1e-6 in
  let w len = Tree.wire_of_line line ~length:len in
  let tree =
    Tree.node ~name:"r"
      [
        ( w 0.008,
          Tree.node ~name:"j"
            [
              (w 0.004, Tree.sink ~name:"near" ~cap:2e-13);
              (w 0.010, Tree.sink ~name:"far" ~cap:2e-13);
            ] );
      ]
    (* refine so the near sink has enough effective states for q = 2
       (coarse trees legitimately destabilise higher orders) *)
    |> Tree.segment_edges ~max_segment:(w 0.002)
  in
  let models = Awe.of_tree ~driver_rs:15.0 ~order:2 tree in
  Alcotest.(check int) "two sinks" 2 (List.length models);
  let delay name =
    let m = List.assoc name models in
    Alcotest.(check bool) (name ^ " stable") true m.Awe.stable;
    Awe.delay m
  in
  Alcotest.(check bool) "far sink slower" true (delay "far" > delay "near")

(* ---------------- Htree ---------------- *)

let test_htree_structure () =
  let line = Rlc_core.Line.of_node node100 ~l:1e-6 in
  let t = Htree.build ~levels:3 ~total_span:0.02 ~line ~sink_cap:1e-13 in
  Alcotest.(check int) "8 sinks" 8 (List.length (Tree.sinks t));
  Alcotest.(check int) "depth" 3 (Tree.depth t);
  (* total wire per root-to-sink path: span/2 + span/4 + span/8 *)
  match Tree.total_wire t with
  | Some w ->
      (* 2 edges of span/2, 4 of span/4, 8 of span/8: total 3 * span *)
      check_close "total wire length" (3.0 *. 0.02 *. node100.Rlc_tech.Node.r)
        w.Tree.r ~tol:1e-9
  | None -> Alcotest.fail "wire totals"

let test_htree_balanced_zero_skew () =
  let line = Rlc_core.Line.of_node node100 ~l:1.5e-6 in
  let t = Htree.build ~levels:4 ~total_span:0.02 ~line ~sink_cap:4e-13 in
  let s = Htree.skew ~driver_rs:15.0 t in
  Alcotest.(check bool) "zero skew" true (Float.abs s < 1e-15)

let test_htree_inductance_imbalance_creates_skew () =
  let line = Rlc_core.Line.of_node node100 ~l:1.5e-6 in
  let t = Htree.build ~levels:4 ~total_span:0.02 ~line ~sink_cap:4e-13 in
  let bump dl w =
    { w with Tree.l = w.Tree.l +. (dl *. w.Tree.r /. node100.Rlc_tech.Node.r) }
  in
  let skew_at dl =
    Htree.skew ~driver_rs:15.0 (Htree.imbalance_first_branch (bump dl) t)
  in
  let s1 = skew_at 0.5e-6 and s2 = skew_at 2e-6 in
  Alcotest.(check bool) "skew appears" true (s1 > 1e-12);
  Alcotest.(check bool) "skew grows with the asymmetry" true (s2 > 2.0 *. s1)

let test_htree_capacitive_imbalance_creates_skew () =
  let line = Rlc_core.Line.of_node node100 ~l:0.0 in
  let t = Htree.build ~levels:3 ~total_span:0.02 ~line ~sink_cap:4e-13 in
  let heavier w = { w with Tree.c = 1.3 *. w.Tree.c } in
  let s = Htree.skew ~driver_rs:15.0 (Htree.imbalance_first_branch heavier t) in
  Alcotest.(check bool) "miller-style imbalance skews too" true (s > 1e-12)

let test_htree_to_netlist () =
  let line = Rlc_core.Line.of_node node100 ~l:1.5e-6 in
  let t = Htree.build ~levels:3 ~total_span:0.02 ~line ~sink_cap:4e-13 in
  let nl, _root, sinks =
    Htree.to_netlist ~segments_per_wire:2 ~driver_rs:15.0 ~t_rise:5e-12 t
  in
  Alcotest.(check int) "8 sink nodes" 8 (List.length sinks);
  Alcotest.(check (list string))
    "sink order matches the tree" (List.map fst (Tree.sinks t))
    (List.map fst sinks);
  let probes =
    List.map (fun (_, n) -> Rlc_circuit.Transient.Node_v n) sinks
  in
  (* size the window from the moment engine's own delay estimate *)
  let d_est =
    List.fold_left
      (fun acc (_, d) -> Float.max acc d)
      0.0
      (Htree.sink_delays ~driver_rs:15.0 t)
  in
  let res =
    Rlc_circuit.Transient.simulate nl ~t_end:(8.0 *. d_est)
      ~dt:(d_est /. 400.0) ~probes
  in
  let delay_of probe =
    match
      Rlc_waveform.Measure.first_crossing
        (Rlc_circuit.Transient.get res probe)
        ~level:0.5
    with
    | Some t50 -> t50
    | None -> Alcotest.fail "sink never crossed 50%"
  in
  let delays = List.map delay_of probes in
  let d0 = List.hd delays in
  Alcotest.(check bool) "positive delay" true (d0 > 0.0);
  (* the tree is balanced: every sink must see the same waveform *)
  List.iter
    (fun d -> check_close ~tol:1e-9 "balanced sinks agree" d0 d)
    delays;
  (* and the circuit-level skew agrees with the moment engine's zero *)
  let spread =
    List.fold_left Float.max d0 delays -. List.fold_left Float.min d0 delays
  in
  Alcotest.(check bool) "zero skew in simulation" true (spread < 1e-13)

let test_htree_validation () =
  let line = Rlc_core.Line.of_node node100 ~l:0.0 in
  Alcotest.check_raises "levels" (Invalid_argument "Htree.build: levels must be in 1..12")
    (fun () ->
      ignore (Htree.build ~levels:0 ~total_span:0.01 ~line ~sink_cap:1e-13))

let () =
  Alcotest.run "rlc_tree"
    [
      ( "tree",
        [
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "totals" `Quick test_tree_totals;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "segment_edges" `Quick test_tree_segment_edges;
          Alcotest.test_case "map_wires" `Quick test_tree_map_wires;
        ] );
      ( "moments",
        [
          Alcotest.test_case "single rc elmore" `Quick test_moments_single_rc;
          Alcotest.test_case "lumped rlc b2 = LC" `Quick
            test_moments_lumped_rlc;
          Alcotest.test_case "chain matches paper b1/b2" `Quick
            test_moments_match_stage;
          Alcotest.test_case "l only enters b2" `Quick
            test_moments_inductance_only_in_b2;
          Alcotest.test_case "critical sink" `Quick
            test_moments_farther_sink_slower;
          Alcotest.test_case "sink delay" `Quick test_moments_sink_delay;
        ] );
      ( "buffering",
        [
          Alcotest.test_case "wire delay limits" `Quick test_wire_delay_limits;
          Alcotest.test_case "buffer delay model" `Quick
            test_buffer_delay_model;
          Alcotest.test_case "improves a long chain" `Quick
            test_buffering_improves_long_chain;
          Alcotest.test_case "dp = exhaustive (small tree)" `Quick
            test_buffering_dp_matches_exhaustive;
          Alcotest.test_case "plan evaluates consistently" `Quick
            test_buffering_plan_evaluates_consistently;
          Alcotest.test_case "validation" `Quick test_buffering_validation;
          Alcotest.test_case "inductance awareness" `Quick
            test_buffering_inductance_awareness;
        ] );
      ( "awe",
        [
          Alcotest.test_case "single pole exact" `Quick test_awe_single_pole;
          Alcotest.test_case "two poles exact" `Quick test_awe_two_pole_exact;
          Alcotest.test_case "moment matching" `Quick test_awe_moment_matching;
          Alcotest.test_case "accuracy vs order" `Quick
            test_awe_accuracy_improves_with_order;
          Alcotest.test_case "validation" `Quick test_awe_validation;
          Alcotest.test_case "multi-sink tree" `Quick
            test_awe_of_tree_multisink;
        ] );
      ( "htree",
        [
          Alcotest.test_case "structure" `Quick test_htree_structure;
          Alcotest.test_case "balanced: zero skew" `Quick
            test_htree_balanced_zero_skew;
          Alcotest.test_case "inductive imbalance skews" `Quick
            test_htree_inductance_imbalance_creates_skew;
          Alcotest.test_case "capacitive imbalance skews" `Quick
            test_htree_capacitive_imbalance_creates_skew;
          Alcotest.test_case "to_netlist transient skew" `Quick
            test_htree_to_netlist;
          Alcotest.test_case "validation" `Quick test_htree_validation;
        ] );
    ]
