(* Tests for the AC small-signal engine (Ac over the Assembly IR) and
   the PRIMA model-order reducer (Rlc_mor.Prima): moment matching
   against the tree engine and the closed-form two-pole series, pole
   recovery against the paper's analytic two-pole model and AWE, and
   step-response agreement with both the banded transient engine and
   the Talbot inverse Laplace transform. *)

open Rlc_numerics
open Rlc_circuit
module Prima = Rlc_mor.Prima

open Approx

let check_cx ?(tol = 1e-9) msg expected actual =
  check_close ~tol (msg ^ " (re)") (Cx.re expected) (Cx.re actual);
  check_close ~tol (msg ^ " (im)") (Cx.im expected) (Cx.im actual)

(* ---------------- fixtures ---------------- *)

(* Lumped driver-line-load stage: Rs into a single series R-L branch
   into a load cap.  Its transfer function to the far node is exactly
   the paper's two-pole form H = 1/(1 + b1 s + b2 s^2) with
   b1 = CL (Rs + R) and b2 = L CL. *)
let rs = 30.0
let r_line = 50.0
let l_line = 5e-9
let cl = 50e-15
let b1 = cl *. (rs +. r_line)
let b2 = l_line *. cl

let lumped_stage () =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node ~name:"src" nl in
  let mid = Netlist.fresh_node ~name:"mid" nl in
  let far = Netlist.fresh_node ~name:"far" nl in
  Netlist.add_vsource ~name:"vin" nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor ~name:"rdrv" nl src mid rs;
  Netlist.add_rl_branch ~name:"line" nl mid far ~ohms:r_line ~henries:l_line;
  Netlist.add_capacitor ~name:"cload" nl far Netlist.ground cl;
  (nl, far)

let h_lumped s =
  Cx.inv
    (Cx.( +: ) Cx.one
       (Cx.( +: ) (Cx.scale b1 s) (Cx.( *: ) (Cx.scale b2 s) s)))

(* Taylor coefficients of h_lumped about s = 0:
   1/(1 + b1 s + b2 s^2) = 1 - b1 s + (b1^2 - b2) s^2
                           + (2 b1 b2 - b1^3) s^3 + ... *)
let lumped_moments =
  [| 1.0; -.b1; (b1 *. b1) -. b2; (2.0 *. b1 *. b2) -. (b1 *. b1 *. b1) |]

(* Discretised paper-style stage: driver resistance + parasitic cap,
   [segments]-section RLC ladder, receiver load cap.  The same
   structure as the bench's 800-segment line, shrunk. *)
let line_r = 4400.0 (* ohm/m *)
let line_l = 1.5e-6 (* H/m *)
let line_c = 123.33e-12 (* F/m *)
let line_len = 0.011 (* m *)
let drv_rs = 30.0
let drv_cp = 15e-15
let load_cl = 50e-15

let ladder_stage segments =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node ~name:"src" nl in
  Netlist.add_vsource ~name:"vin" nl src Netlist.ground (Stimulus.Dc 1.0);
  let inp = Netlist.fresh_node ~name:"inp" nl in
  Netlist.add_resistor ~name:"rdrv" nl src inp drv_rs;
  Netlist.add_capacitor ~name:"cpar" nl inp Netlist.ground drv_cp;
  let far = Netlist.fresh_node ~name:"far" nl in
  Ladder.make nl
    { Ladder.r = line_r; l = line_l; c = line_c; length = line_len; segments }
    ~from_node:inp ~to_node:far;
  Netlist.add_capacitor ~name:"cload" nl far Netlist.ground load_cl;
  (nl, far)

(* RC-dominated (diffusive) variant of the same stage: the paper's r
   and c with a much smaller inductance per length over a longer span,
   so the response has no sharp wavefront.  A low-order rational model
   can track this regime closely — it is the regime the MOR bench
   targets (a sharp low-loss wavefront needs far more poles than
   order 10: Gibbs-like undershoot at the front otherwise). *)
let rc_line_l = 0.1e-6
let rc_line_len = 0.05
let rc_drv_rs = 100.0

let rc_ladder_stage segments =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node ~name:"src" nl in
  Netlist.add_vsource ~name:"vin" nl src Netlist.ground (Stimulus.Dc 1.0);
  let inp = Netlist.fresh_node ~name:"inp" nl in
  Netlist.add_resistor ~name:"rdrv" nl src inp rc_drv_rs;
  Netlist.add_capacitor ~name:"cpar" nl inp Netlist.ground drv_cp;
  let far = Netlist.fresh_node ~name:"far" nl in
  Ladder.make nl
    {
      Ladder.r = line_r;
      l = rc_line_l;
      c = line_c;
      length = rc_line_len;
      segments;
    }
    ~from_node:inp ~to_node:far;
  Netlist.add_capacitor ~name:"cload" nl far Netlist.ground load_cl;
  (nl, far)

let ladder_tree segments =
  let dh = line_len /. float_of_int segments in
  let wire =
    Rlc_tree.Tree.wire ~r:(line_r *. dh) ~l:(line_l *. dh) ~c:(line_c *. dh)
  in
  Rlc_tree.Tree.chain ~sink_cap:load_cl
    (List.init segments (fun _ -> wire))

(* Far-node moments of the discretised ladder from the tree engine: an
   independent reference for the reducer's moment matching. *)
let tree_moments segments ~order =
  match
    Rlc_tree.Moments.voltage_moments ~driver_cp:drv_cp ~driver_rs:drv_rs
      ~order (ladder_tree segments)
  with
  | [ (_, arr) ] -> arr
  | _ -> Alcotest.fail "expected a single sink"

(* H(s) at [node] for a unit first source: one direct complex solve of
   the full system, the reference for the sweep and the reducer. *)
let transfer asm node s =
  let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
  (Assembly.solve_complex asm ~s ~rhs).(Assembly.probe ~ctx:"test" asm node)

(* ---------------- Ac ---------------- *)

let test_transfer_analytic () =
  let nl, far = lumped_stage () in
  let asm = Assembly.of_netlist nl in
  List.iter
    (fun f ->
      let s = Ac.s_of_freq f in
      check_cx ~tol:1e-9
        (Printf.sprintf "H at %.0e Hz" f)
        (h_lumped s) (transfer asm far s))
    [ 1e6; 1e8; 1e9; 5e9; 2e10 ];
  (* a real (damping-axis) point too: the system is not just a
     jw-axis story *)
  let s = Cx.of_float 1e9 in
  check_cx ~tol:1e-9 "H at real s" (h_lumped s) (transfer asm far s)

let source_free () =
  let nl = Netlist.create () in
  let a = Netlist.fresh_node nl in
  Netlist.add_resistor nl a Netlist.ground 1e3;
  Netlist.add_capacitor nl a Netlist.ground 1e-12;
  (Assembly.of_netlist nl, a)

let test_bad_probes () =
  let nl, far = lumped_stage () in
  let asm = Assembly.of_netlist nl in
  let free_asm, free_node = source_free () in
  let freqs = [| 1e9 |] in
  let cases =
    [
      ("ground", asm, Netlist.ground, "ground has no voltage");
      ("past the last node", asm, far + 1, "node out of range");
      ("negative node", asm, -1, "node out of range");
      ("source-free deck", free_asm, free_node, "deck has no independent source");
    ]
  in
  List.iter
    (fun (what, asm, node, msg) ->
      Alcotest.check_raises ("bode: " ^ what)
        (Invalid_argument ("Ac.bode: " ^ msg))
        (fun () -> ignore (Ac.bode asm ~node ~freqs));
      Alcotest.check_raises ("reduce: " ^ what)
        (Invalid_argument ("Prima.reduce: " ^ msg))
        (fun () -> ignore (Prima.reduce ~order:2 asm ~node)))
    cases;
  Alcotest.check_raises "reduce: order 0"
    (Invalid_argument "Prima.reduce: order < 1") (fun () ->
      ignore (Prima.reduce ~order:0 asm ~node:far))

let test_decade_grid () =
  let g = Ac.decade_grid ~points_per_decade:10 ~fstart:1e6 ~fstop:1e9 in
  Alcotest.(check int) "count" 31 (Array.length g);
  check_close "first" 1e6 g.(0);
  check_close "last" 1e9 g.(Array.length g - 1);
  (* log-uniform: constant ratio *)
  check_close ~tol:1e-9 "ratio" (g.(1) /. g.(0)) (g.(11) /. g.(10));
  Alcotest.(check int) "degenerate"
    1
    (Array.length (Ac.decade_grid ~points_per_decade:7 ~fstart:42.0 ~fstop:42.0));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Ac.decade_grid: need 0 < fstart <= fstop") (fun () ->
      ignore (Ac.decade_grid ~points_per_decade:1 ~fstart:0.0 ~fstop:1.0))

let test_ac_rc_lowpass () =
  let r = 1e3 and c = 1e-12 in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let out = Netlist.fresh_node nl in
  Netlist.add_vsource ~name:"vin" nl src Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_resistor nl src out r;
  Netlist.add_capacitor nl out Netlist.ground c;
  let asm = Assembly.of_netlist nl in
  let f3 = 1.0 /. (2.0 *. Float.pi *. r *. c) in
  let pts =
    Ac.bode asm ~node:out ~freqs:[| f3 /. 100.0; f3; f3 *. 100.0 |]
  in
  (* at f3/100 the magnitude is 1/sqrt(1 + 1e-4): flat to ~4e-4 dB *)
  check_close ~tol:1e-6 "dc flat"
    (-10.0 *. Float.log10 (1.0 +. 1e-4))
    pts.(0).Ac.mag_db;
  check_close ~tol:1e-6 "-3 dB at the corner"
    (10.0 *. Float.log10 0.5)
    pts.(1).Ac.mag_db;
  check_close ~tol:1e-6 "-45 deg at the corner" (-45.0) pts.(1).Ac.phase_deg;
  (* one decade above the corner: -20 dB/decade slope *)
  check_close ~tol:1e-2 "far rolloff" (-40.0) pts.(2).Ac.mag_db

let test_ac_matches_exact_line () =
  (* the discretised ladder's sweep must converge to the exact
     distributed-line response of the core library (equation (1) of the
     paper) in and around the passband *)
  let line = Rlc_core.Line.make ~r:line_r ~l:line_l ~c:line_c in
  let driver = Rlc_tech.Driver.make ~rs:drv_rs ~c0:load_cl ~cp:drv_cp in
  let stage = Rlc_core.Stage.make ~line ~driver ~h:line_len ~k:1.0 in
  let nl, far = ladder_stage 64 in
  let asm = Assembly.of_netlist nl in
  List.iter
    (fun f ->
      let exact = Rlc_core.Frequency.response stage f in
      let ladder =
        Ac.point_of ~freq:f (transfer asm far (Ac.s_of_freq f))
      in
      check_close ~tol:2e-3
        (Printf.sprintf "mag at %.2e Hz" f)
        exact.Rlc_core.Frequency.mag_db ladder.Ac.mag_db;
      check_close ~tol:2e-3
        (Printf.sprintf "phase at %.2e Hz" f)
        exact.Rlc_core.Frequency.phase_deg ladder.Ac.phase_deg)
    [ 1e8; 5e8; 1e9; 2e9; 5e9 ]

let test_ac_unwrap () =
  Alcotest.(check int) "empty" 0 (Array.length (Ac.unwrap [||]));
  let smooth = [| 10.0; -20.0; -50.0; -170.0 |] in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "no jump %d" i) smooth.(i) v)
    (Ac.unwrap smooth);
  (* a wrap at +/-180: the unwrapped curve keeps descending *)
  let wrapped = [| -150.0; -170.0; 170.0; 150.0 |] in
  let expect = [| -150.0; -170.0; -190.0; -210.0 |] in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "descending %d" i) expect.(i) v)
    (Ac.unwrap wrapped);
  (* multiple turns accumulate *)
  let spiral = [| 170.0; -170.0; 170.0; -170.0 |] in
  let expect = [| 170.0; 190.0; 170.0; 190.0 |] in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "spiral %d" i) expect.(i) v)
    (Ac.unwrap spiral);
  (* a long lossy ladder's phase decreases monotonically once unwrapped *)
  let nl, far = ladder_stage 48 in
  let freqs = Ac.decade_grid ~points_per_decade:20 ~fstart:1e8 ~fstop:2e10 in
  let pts = Ac.bode (Assembly.of_netlist nl) ~node:far ~freqs in
  let unwrapped = Ac.unwrap (Array.map (fun p -> p.Ac.phase_deg) pts) in
  let wraps = ref false in
  Array.iteri
    (fun i u ->
      if i > 0 then begin
        if u > unwrapped.(i - 1) +. 1e-9 then
          Alcotest.failf "phase not monotone at point %d" i;
        if Float.abs (u -. unwrapped.(i - 1)) > 180.0 then wraps := true
      end)
    unwrapped;
  Alcotest.(check bool) "no 360-degree jumps" false !wraps;
  Alcotest.(check bool) "accumulates beyond -180" true
    (unwrapped.(Array.length unwrapped - 1) < -180.0)

(* ---------------- Prima ---------------- *)

let lumped_model () =
  let nl, far = lumped_stage () in
  Prima.reduce ~order:3 (Assembly.of_netlist nl) ~node:far

let test_prima_lumped_poles () =
  let model = lumped_model () in
  check_close "dc" 1.0 model.Prima.dc;
  Alcotest.(check bool) "stable" true model.Prima.stable;
  let analytic = Rlc_core.Poles.of_coeffs { Rlc_core.Pade.b1; b2 } in
  let expected = [ analytic.Rlc_core.Poles.s1; analytic.Rlc_core.Poles.s2 ] in
  (* match each analytic pole to its closest reduced pole *)
  List.iter
    (fun p ->
      let best =
        Array.fold_left
          (fun acc q ->
            Float.min acc (Cx.norm (Cx.( -: ) p q) /. Cx.norm p))
          Float.infinity model.Prima.poles
      in
      if best > 1e-6 then
        Alcotest.failf "pole %a missed by relative %.2e" Cx.pp p best)
    expected;
  (* any extra basis pole must carry (relatively) no step-response
     weight: H_r = H exactly, so everything beyond the two physical
     poles is residue noise *)
  Array.iteri
    (fun i p ->
      let physical =
        List.exists
          (fun e -> Cx.norm (Cx.( -: ) p e) /. Cx.norm e < 1e-6)
          expected
      in
      let weight = Cx.norm (Cx.( /: ) model.Prima.residues.(i) p) in
      if (not physical) && weight > 1e-3 then
        Alcotest.failf "spurious pole %a carries step weight %.2e" Cx.pp p
          weight)
    model.Prima.poles

let test_prima_matches_awe () =
  let model = lumped_model () in
  let awe = Rlc_tree.Awe.reduce ~moments:lumped_moments ~order:2 in
  List.iter
    (fun p ->
      let best =
        Array.fold_left
          (fun acc q ->
            Float.min acc (Cx.norm (Cx.( -: ) p q) /. Cx.norm p))
          Float.infinity model.Prima.poles
      in
      if best > 1e-6 then
        Alcotest.failf "AWE pole %a missed by relative %.2e" Cx.pp p best)
    awe.Rlc_tree.Awe.poles

let reduced_moments model order =
  (* moments of the reduced model, straight from its small matrices *)
  let q = model.Prima.order in
  let lu = Lu.decompose (Matrix.copy model.Prima.g_r) in
  let x = ref (Lu.solve lu model.Prima.b_r) in
  Array.init (order + 1) (fun k ->
      if k > 0 then begin
        let cx = Matrix.mul_vec model.Prima.c_r !x in
        x := Array.map (fun v -> -.v) (Lu.solve lu cx)
      end;
      let acc = ref 0.0 in
      for i = 0 to q - 1 do
        acc := !acc +. (model.Prima.l_r.(i) *. !x.(i))
      done;
      !acc)

let test_prima_dc_and_moments_analytic () =
  (* order 3 spans the lumped stage's reachable space: the reduced
     model is H itself, so every closed-form moment matches *)
  let model = lumped_model () in
  check_close "dc gain" 1.0 model.Prima.dc;
  let red = reduced_moments model 3 in
  Array.iteri
    (fun k m -> check_rel ~tol:1e-9 (Printf.sprintf "m%d" k) m red.(k))
    lumped_moments

let test_prima_moment_matching () =
  let segments = 16 in
  let nl, far = ladder_stage segments in
  let order = 4 in
  let model = Prima.reduce ~order (Assembly.of_netlist nl) ~node:far in
  Alcotest.(check int) "kept the full order" order model.Prima.order;
  let full = tree_moments segments ~order:(order - 1) in
  let red = reduced_moments model (order - 1) in
  (* the PRIMA guarantee: the first q moments agree *)
  for k = 0 to order - 1 do
    let scale = Float.max (Float.abs full.(k)) 1e-300 in
    check_close ~tol:1e-8
      (Printf.sprintf "moment %d" k)
      (full.(k) /. scale)
      (red.(k) /. scale)
  done

let test_prima_full_order_exact () =
  (* with the basis spanning the whole reachable space the projection
     is no longer an approximation at all *)
  let nl, far = ladder_stage 8 in
  let asm = Assembly.of_netlist nl in
  let model = Prima.reduce ~order:asm.Assembly.size asm ~node:far in
  List.iter
    (fun f ->
      let s = Ac.s_of_freq f in
      check_cx ~tol:1e-7
        (Printf.sprintf "H at %.0e Hz" f)
        (transfer asm far s) (Prima.eval model s))
    [ 1e8; 1e9; 5e9; 2e10 ]

let test_prima_step_vs_transient () =
  let segments = 64 in
  let nl, far = rc_ladder_stage segments in
  let model = Prima.reduce ~order:10 (Assembly.of_netlist nl) ~node:far in
  Alcotest.(check bool) "stable" true model.Prima.stable;
  let t_end = 8e-9 and dt = 4e-12 in
  let r =
    Transient.simulate nl ~t_end ~dt ~probes:[ Transient.Node_v far ]
  in
  let w = Transient.get r (Transient.Node_v far) in
  let times = Rlc_waveform.Waveform.times w in
  let values = Rlc_waveform.Waveform.values w in
  let lo, hi = Stats.min_max values in
  let swing = hi -. lo in
  Alcotest.(check bool) "nontrivial swing" true (swing > 0.5);
  let worst = ref 0.0 in
  Array.iteri
    (fun i t ->
      if t > 0.0 then
        worst :=
          Float.max !worst (Float.abs (Prima.step_eval model t -. values.(i))))
    times;
  if !worst > 0.01 *. swing then
    Alcotest.failf "reduced step response off by %.3f%% of swing"
      (100.0 *. !worst /. swing)

let test_prima_bode_matches_ac () =
  let nl, far = ladder_stage 64 in
  let asm = Assembly.of_netlist nl in
  let model = Prima.reduce ~order:10 asm ~node:far in
  let freqs = Ac.decade_grid ~points_per_decade:5 ~fstart:1e8 ~fstop:5e9 in
  let full = Ac.bode asm ~node:far ~freqs in
  let red = Prima.bode model ~freqs in
  Array.iteri
    (fun i p ->
      check_close ~tol:2e-2
        (Printf.sprintf "mag at %.2e Hz" p.Ac.freq)
        p.Ac.mag_db red.(i).Ac.mag_db)
    full

let test_prima_sparse_allocation () =
  (* the MOR bench's 800-segment ladder (1603 unknowns): the Krylov
     products and both projections stay on the sparse IR, so order 10
     allocates a few basis-sized vectors, not a dense n x n copy
     (which alone is 2 x 20 MB here) *)
  let nl, far = rc_ladder_stage 800 in
  let asm = Assembly.of_netlist nl in
  let before = Gc.allocated_bytes () in
  let model = Prima.reduce ~order:10 asm ~node:far in
  let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
  Alcotest.(check bool) "stable" true model.Prima.stable;
  if mb >= 100.0 then Alcotest.failf "reduce allocated %.1f MB (>= 100)" mb

(* ---------------- Laplace inversion vs the AC engine ---------------- *)

let test_laplace_step_vs_transient () =
  (* the Talbot inversion of the MNA transfer function is a third,
     independent route to the step response; all three engines
     (frequency-domain + inversion, reduced model, time stepping) must
     tell the same story *)
  (* the diffusive stage keeps the transfer function's singularities
     well off the imaginary axis, where the Talbot contour is
     accurate; an underdamped line would need a different contour *)
  let segments = 16 in
  let nl, far = rc_ladder_stage segments in
  let h = transfer (Assembly.of_netlist nl) far in
  let t_end = 8e-9 and dt = 4e-12 in
  let r = Transient.simulate nl ~t_end ~dt ~probes:[ Transient.Node_v far ] in
  let w = Transient.get r (Transient.Node_v far) in
  List.iter
    (fun t ->
      let talbot = Laplace.step_response h t in
      let sim = Rlc_waveform.Waveform.value_at w t in
      check_close ~tol:5e-3 (Printf.sprintf "step at %.2e s" t) talbot sim)
    [ 1e-9; 2e-9; 4e-9; 7e-9 ]

let () =
  Alcotest.run "mor"
    [
      ( "ac",
        [
          Alcotest.test_case "decade grid" `Quick test_decade_grid;
          Alcotest.test_case "transfer vs analytic" `Quick
            test_transfer_analytic;
          Alcotest.test_case "bad probes" `Quick test_bad_probes;
          Alcotest.test_case "rc lowpass" `Quick test_ac_rc_lowpass;
          Alcotest.test_case "ladder vs exact line" `Quick
            test_ac_matches_exact_line;
          Alcotest.test_case "phase unwrapping" `Quick test_ac_unwrap;
        ] );
      ( "prima",
        [
          Alcotest.test_case "lumped stage poles" `Quick
            test_prima_lumped_poles;
          Alcotest.test_case "matches awe order 2" `Quick
            test_prima_matches_awe;
          Alcotest.test_case "dc + moments vs analytic" `Quick
            test_prima_dc_and_moments_analytic;
          Alcotest.test_case "moment matching" `Quick
            test_prima_moment_matching;
          Alcotest.test_case "full order is exact" `Quick
            test_prima_full_order_exact;
          Alcotest.test_case "step vs transient" `Quick
            test_prima_step_vs_transient;
          Alcotest.test_case "bode vs full ac" `Quick
            test_prima_bode_matches_ac;
          Alcotest.test_case "800-segment reduce stays sparse" `Quick
            test_prima_sparse_allocation;
        ] );
      ( "laplace-x-check",
        [
          Alcotest.test_case "talbot step vs transient" `Quick
            test_laplace_step_vs_transient;
        ] );
    ]
