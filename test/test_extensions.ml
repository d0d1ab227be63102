(* Tests for the beyond-the-paper extension modules: third-order model,
   power-aware sizing, integer insertion, coupled lines (analytic and
   transient), variation analysis, wire sizing and the square-wave
   chain. *)

open Approx

open Rlc_core

let node100 = Rlc_tech.Presets.node_100nm
let node250 = Rlc_tech.Presets.node_250nm

let mk_stage ?(node = node100) ?(l = 1.5e-6) ?(h = 0.012) ?(k = 300.0) () =
  Stage.of_node node ~l ~h ~k

(* ---------------- Third_order ---------------- *)

let test_third_order_agrees_with_pade () =
  let stage = mk_stage () in
  let c2 = Pade.coeffs stage in
  let c3 = Third_order.coeffs stage in
  check_close "b1" c2.Pade.b1 c3.Third_order.b1;
  check_close "b2" c2.Pade.b2 c3.Third_order.b2;
  Alcotest.(check bool) "b3 > 0" true (c3.Third_order.b3 > 0.0)

let test_third_order_taylor () =
  (* H(s) (1 + b1 s + b2 s^2 + b3 s^3) = 1 + O(s^4): the residual at
     s = 1e8 must shrink ~16x when s is halved *)
  let stage = mk_stage () in
  let c3 = Third_order.coeffs stage in
  let residual s_mag =
    let s = Rlc_numerics.Cx.of_float s_mag in
    let open Rlc_numerics.Cx in
    let denom =
      of_float 1.0
      +: scale c3.Third_order.b1 s
      +: scale c3.Third_order.b2 (s *: s)
      +: scale c3.Third_order.b3 (s *: s *: s)
    in
    norm ((Transfer.eval stage s *: denom) -: of_float 1.0)
  in
  let r1 = residual 1e8 and r2 = residual 5e7 in
  Alcotest.(check bool)
    (Printf.sprintf "O(s^4) scaling: %g -> %g" r1 r2)
    true
    (r1 /. r2 > 12.0 && r1 /. r2 < 20.0)

let test_third_order_step_response () =
  let c3 = Third_order.coeffs (mk_stage ()) in
  check_close "v(0) = 0" 0.0 (Third_order.step_eval c3 0.0);
  check_close "v(inf) = 1" 1.0
    (Third_order.step_eval c3 (50.0 *. c3.Third_order.b1))
    ~tol:1e-5

let test_third_order_delay_between_pade_and_exact () =
  (* at moderate-to-high inductance the 3rd-order delay must be closer
     to the exact distributed answer than the 2nd-order one *)
  List.iter
    (fun l ->
      let stage = Rc_opt.stage node100 ~l in
      let tau2 = Delay.of_stage stage in
      let tau3 = Third_order.delay_stage stage in
      let residual t =
        Rlc_numerics.Laplace.step_response
          (fun s -> Transfer.eval stage s)
          t
        -. 0.5
      in
      let lo, hi =
        Rlc_numerics.Roots.bracket_first residual ~t0:1e-13 ~dt:(tau2 /. 24.0)
      in
      let exact = Rlc_numerics.Roots.brent residual lo hi in
      Alcotest.(check bool)
        (Printf.sprintf "3rd order beats 2nd at l=%g" l)
        true
        (Float.abs (tau3 -. exact) < Float.abs (tau2 -. exact)))
    [ 2e-6; 4e-6 ]

let test_third_order_solves_equation () =
  let c3 = Third_order.coeffs (mk_stage ()) in
  let tau = Third_order.delay c3 in
  check_close "v(tau) = 0.5" 0.5 (Third_order.step_eval c3 tau) ~tol:1e-8

(* ---------------- Power ---------------- *)

let test_power_components () =
  let h = 0.012 and k = 300.0 in
  let dyn = Power.dynamic_per_length node100 ~h ~k in
  let leak = Power.leakage_per_length node100 ~h ~k in
  Alcotest.(check bool) "dynamic positive" true (dyn > 0.0);
  Alcotest.(check bool) "dynamic dominates leakage" true (dyn > 10.0 *. leak);
  check_close "total" (dyn +. leak) (Power.per_length node100 ~h ~k)

let test_power_monotonicity () =
  let p h k = Power.per_length node100 ~h ~k in
  Alcotest.(check bool) "more repeaters = more power" true
    (p 0.006 300.0 > p 0.012 300.0);
  Alcotest.(check bool) "bigger repeaters = more power" true
    (p 0.012 600.0 > p 0.012 300.0)

let test_power_lambda_zero_is_delay_optimum () =
  let l = 1.5e-6 in
  let r = Power.optimize_weighted node100 ~l ~lambda:0.0 in
  let opt = Rlc_opt.optimize node100 ~l in
  check_close "same delay" opt.Rlc_opt.delay_per_length r.Power.delay_per_length
    ~tol:1e-4

let test_power_pareto_tradeoff () =
  let l = 1.5e-6 in
  let front = Power.pareto ~lambdas:[ 0.0; 0.5; 1.0 ] node100 ~l in
  match front with
  | [ a; b; c ] ->
      Alcotest.(check bool) "delay increases along the front" true
        (a.Power.delay_per_length <= b.Power.delay_per_length
        && b.Power.delay_per_length <= c.Power.delay_per_length);
      Alcotest.(check bool) "power decreases along the front" true
        (a.Power.power_per_length >= b.Power.power_per_length
        && b.Power.power_per_length >= c.Power.power_per_length);
      Alcotest.(check bool) "worthwhile trade" true
        (c.Power.power_saving > 0.15 && c.Power.delay_penalty < 1.2)
  | _ -> Alcotest.fail "expected three points"

(* ---------------- Insertion ---------------- *)

let test_insertion_long_net_matches_continuous () =
  let l = 1.5e-6 in
  let p = Insertion.plan node100 ~l ~length:0.2 in
  Alcotest.(check bool) "many repeaters" true (p.Insertion.segments >= 10);
  Alcotest.(check bool) "tiny quantization penalty" true
    (p.Insertion.quantization_penalty < 0.005)

let test_insertion_short_net () =
  let l = 1.5e-6 in
  let p = Insertion.plan node100 ~l ~length:0.004 in
  Alcotest.(check int) "single segment" 1 p.Insertion.segments;
  check_close "h = net length" 0.004 p.Insertion.h;
  Alcotest.(check bool) "bound is a lower bound" true
    (p.Insertion.total_delay >= p.Insertion.continuous_bound)

let test_insertion_k_reoptimized () =
  (* with the segment pinned short, the best k differs from the
     unconstrained optimum *)
  let l = 1.5e-6 in
  let k_short = Insertion.optimal_k_for_h node100 ~l ~h:0.004 in
  let unconstrained = Rlc_opt.optimize node100 ~l in
  Alcotest.(check bool) "k adapts to short segment" true
    (k_short < unconstrained.Rlc_opt.k)

let test_insertion_validation () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Insertion.plan: length <= 0") (fun () ->
      ignore (Insertion.plan node100 ~l:0.0 ~length:0.0))

(* ---------------- Coupled (analytic) ---------------- *)

let pair ?(l_self = 1.5e-6) () =
  Coupled.of_geometry node100.Rlc_tech.Node.geometry ~l_self ~length:0.011

let test_coupled_mode_lines () =
  let p = pair () in
  let even = Coupled.mode_line p Coupled.Even in
  let odd = Coupled.mode_line p Coupled.Odd in
  check_close "even l" (p.Coupled.l_self +. p.Coupled.l_mutual) even.Line.l;
  check_close "odd l" (p.Coupled.l_self -. p.Coupled.l_mutual) odd.Line.l;
  check_close "even c" p.Coupled.c_ground even.Line.c;
  check_close "odd c"
    (p.Coupled.c_ground +. (2.0 *. p.Coupled.c_coupling))
    odd.Line.c

let test_coupled_passivity_validation () =
  Alcotest.check_raises "mutual >= self"
    (Invalid_argument "Coupled.make: need 0 <= l_mutual < l_self") (fun () ->
      ignore
        (Coupled.make ~r:1.0 ~l_self:1e-6 ~l_mutual:1e-6 ~c_ground:1e-12
           ~c_coupling:0.0))

let test_coupled_uncoupled_limit () =
  (* no mutual, no coupling: both modes collapse to the single line *)
  let p =
    Coupled.make ~r:4400.0 ~l_self:1.5e-6 ~l_mutual:0.0 ~c_ground:100e-12
      ~c_coupling:0.0
  in
  let d =
    Coupled.switching_delays p ~driver:node100.Rlc_tech.Node.driver ~h:0.011
      ~k:500.0
  in
  check_close "even = odd" d.Coupled.even_delay d.Coupled.odd_delay;
  check_close "spread = 0" 0.0 d.Coupled.spread ~tol:1e-12;
  check_close "no victim noise" 0.0
    (Coupled.victim_noise_peak p ~driver:node100.Rlc_tech.Node.driver ~h:0.011
       ~k:500.0)
    ~tol:1e-9

let test_coupled_inductive_spread_negative () =
  (* at these geometries mutual inductance dominates: even mode slower *)
  let p = pair () in
  let d =
    Coupled.switching_delays p ~driver:node100.Rlc_tech.Node.driver ~h:0.011
      ~k:500.0
  in
  Alcotest.(check bool) "even slower than odd" true
    (d.Coupled.even_delay > d.Coupled.odd_delay);
  Alcotest.(check bool) "spread negative" true (d.Coupled.spread < 0.0)

let test_coupled_capacitive_spread_positive () =
  (* with negligible mutual the classical Miller ordering returns *)
  let p =
    Coupled.make ~r:4400.0 ~l_self:0.1e-6 ~l_mutual:0.001e-6
      ~c_ground:85e-12 ~c_coupling:40e-12
  in
  let d =
    Coupled.switching_delays p ~driver:node100.Rlc_tech.Node.driver ~h:0.011
      ~k:500.0
  in
  Alcotest.(check bool) "odd slower than even" true
    (d.Coupled.odd_delay > d.Coupled.even_delay)

let test_coupled_victim_noise_positive () =
  let p = pair () in
  let noise =
    Coupled.victim_noise_peak p ~driver:node100.Rlc_tech.Node.driver ~h:0.011
      ~k:500.0
  in
  Alcotest.(check bool) "noise in (0, 1)" true (noise > 0.0 && noise < 1.0)

(* ---------------- Coupled (transient) ---------------- *)

let build_coupled_pair drive2 p ~h ~k ~segments =
  let open Rlc_circuit in
  let driver = node100.Rlc_tech.Node.driver in
  let nl = Netlist.create () in
  let s1 = Netlist.fresh_node nl and s2 = Netlist.fresh_node nl in
  let d1 = Netlist.fresh_node nl and d2 = Netlist.fresh_node nl in
  let f1 = Netlist.fresh_node nl and f2 = Netlist.fresh_node nl in
  Netlist.add_vsource nl s1 Netlist.ground (Stimulus.Dc 1.0);
  Netlist.add_vsource nl s2 Netlist.ground (Stimulus.Dc drive2);
  let rs = Rlc_tech.Driver.scaled_rs driver ~k in
  Netlist.add_resistor nl s1 d1 rs;
  Netlist.add_resistor nl s2 d2 rs;
  Netlist.add_capacitor nl d1 Netlist.ground (Rlc_tech.Driver.scaled_cp driver ~k);
  Netlist.add_capacitor nl d2 Netlist.ground (Rlc_tech.Driver.scaled_cp driver ~k);
  Ladder.make_coupled nl
    {
      Ladder.r = p.Coupled.r;
      l_self = p.Coupled.l_self;
      l_mutual = p.Coupled.l_mutual;
      c_ground = p.Coupled.c_ground;
      c_coupling = p.Coupled.c_coupling;
      length = h;
      segments;
    }
    ~from1:d1 ~to1:f1 ~from2:d2 ~to2:f2;
  Netlist.add_capacitor nl f1 Netlist.ground (Rlc_tech.Driver.scaled_c0 driver ~k);
  Netlist.add_capacitor nl f2 Netlist.ground (Rlc_tech.Driver.scaled_c0 driver ~k);
  let r =
    Transient.simulate nl ~t_end:1.5e-9 ~dt:2.5e-13
      ~probes:[ Transient.Node_v f1; Transient.Node_v f2 ]
  in
  (Transient.get r (Transient.Node_v f1), Transient.get r (Transient.Node_v f2))

let d50 w =
  match
    Rlc_waveform.Measure.threshold_delay w ~fraction:0.5 ~v_final:1.0
  with
  | Some d -> d
  | None -> Alcotest.fail "no 50% crossing"

let test_coupled_transient_modes () =
  let p = pair () in
  let rc = Rc_opt.optimize node100 in
  let h = rc.Rc_opt.h_opt and k = rc.Rc_opt.k_opt in
  let sd =
    Coupled.switching_delays p ~driver:node100.Rlc_tech.Node.driver ~h ~k
  in
  let even_wf, even_wf2 = build_coupled_pair 1.0 p ~h ~k ~segments:16 in
  (* symmetric drive: the two far ends must match exactly *)
  check_close "symmetry" (d50 even_wf) (d50 even_wf2) ~tol:1e-6;
  let odd_wf, _ = build_coupled_pair (-1.0) p ~h ~k ~segments:16 in
  (* mode delays within the Pade truncation band of the analytic model *)
  Alcotest.(check bool)
    (Printf.sprintf "even %.1f ~ %.1f ps" (d50 even_wf *. 1e12)
       (sd.Coupled.even_delay *. 1e12))
    true
    (Float.abs ((d50 even_wf /. sd.Coupled.even_delay) -. 1.0) < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "odd %.1f ~ %.1f ps" (d50 odd_wf *. 1e12)
       (sd.Coupled.odd_delay *. 1e12))
    true
    (Float.abs ((d50 odd_wf /. sd.Coupled.odd_delay) -. 1.0) < 0.2);
  Alcotest.(check bool) "transient sees the inductive flip" true
    (d50 even_wf > d50 odd_wf)

let test_coupled_transient_victim_noise () =
  let p = pair () in
  let rc = Rc_opt.optimize node100 in
  let h = rc.Rc_opt.h_opt and k = rc.Rc_opt.k_opt in
  let _, victim = build_coupled_pair 0.0 p ~h ~k ~segments:16 in
  let sim_noise = Rlc_waveform.Measure.peak_abs victim in
  let analytic =
    Coupled.victim_noise_peak p ~driver:node100.Rlc_tech.Node.driver ~h ~k
  in
  (* the 2-pole mode model underestimates distributed ringing, so the
     simulator must see at least the analytic noise and not more than
     ~2.5x of it *)
  Alcotest.(check bool)
    (Printf.sprintf "victim noise %.1f%% vs analytic %.1f%%"
       (sim_noise *. 100.0) (analytic *. 100.0))
    true
    (sim_noise > 0.8 *. analytic && sim_noise < 2.5 *. analytic)

(* ---------------- Variation ---------------- *)

let test_variation_deterministic () =
  let dist = Variation.default_distribution node100 in
  let a = Variation.draw ~seed:7 ~n:10 node100 dist in
  let b = Variation.draw ~seed:7 ~n:10 node100 dist in
  Alcotest.(check bool) "same seed, same samples" true (a = b);
  let c = Variation.draw ~seed:8 ~n:10 node100 dist in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_variation_samples_in_range () =
  let dist = Variation.default_distribution node100 in
  let samples = Variation.draw ~n:200 node100 dist in
  Alcotest.(check bool) "l within range" true
    (List.for_all
       (fun s ->
         s.Variation.l >= dist.Variation.l_min
         && s.Variation.l <= dist.Variation.l_max)
       samples);
  Alcotest.(check bool) "rs within 3 sigma" true
    (List.for_all
       (fun s ->
         Float.abs (s.Variation.rs_scale -. 1.0)
         <= (3.0 *. dist.Variation.rs_sigma) +. 1e-12)
       samples)

let test_variation_statistics_sane () =
  let rc = Rc_opt.optimize node100 in
  let dist = Variation.default_distribution node100 in
  let s =
    Variation.delay_statistics ~n:300 node100 ~h:rc.Rc_opt.h_opt
      ~k:rc.Rc_opt.k_opt dist
  in
  Alcotest.(check bool) "ordering" true
    (s.Variation.min <= s.Variation.mean
    && s.Variation.mean <= s.Variation.p95
    && s.Variation.p95 <= s.Variation.max);
  Alcotest.(check bool) "spread is material" true
    (s.Variation.stddev > 0.02 *. s.Variation.mean)

let test_variation_mid_sizing_more_robust () =
  let rc = Rc_opt.optimize node100 in
  let mid = Rlc_opt.optimize node100 ~l:(0.5 *. node100.Rlc_tech.Node.l_max) in
  let dist = Variation.default_distribution node100 in
  match
    Variation.compare_sizings node100 dist
      [
        ("rc", rc.Rc_opt.h_opt, rc.Rc_opt.k_opt);
        ("mid", mid.Rlc_opt.h, mid.Rlc_opt.k);
      ]
  with
  | [ (_, rc_stats); (_, mid_stats) ] ->
      Alcotest.(check bool) "mid sizing wins on p95" true
        (mid_stats.Variation.p95 < rc_stats.Variation.p95)
  | _ -> Alcotest.fail "expected two results"

(* ---------------- Wire sizing ---------------- *)

let test_wire_at_scaling () =
  let w1 = Wire_sizing.wire_at node100 ~width:1e-6 in
  let w2 = Wire_sizing.wire_at node100 ~width:2e-6 in
  check_close "r halves when width doubles" (w1.Wire_sizing.r /. 2.0)
    w2.Wire_sizing.r;
  Alcotest.(check bool) "c grows with width (fixed pitch)" true
    (w2.Wire_sizing.c > w1.Wire_sizing.c);
  Alcotest.check_raises "width > pitch"
    (Invalid_argument "Wire_sizing.wire_at: width does not fit the pitch")
    (fun () -> ignore (Wire_sizing.wire_at node100 ~width:5e-6))

let test_wire_sizing_interior_optimum () =
  let best = Wire_sizing.optimize node100 in
  let w_star = best.Wire_sizing.wire.Wire_sizing.width in
  Alcotest.(check bool)
    (Printf.sprintf "interior optimum (%.2f um)" (w_star *. 1e6))
    true
    (w_star > 0.5e-6 && w_star < 3.2e-6);
  (* both narrower and wider are worse *)
  let at w = (Wire_sizing.evaluate node100 ~width:w).Wire_sizing.delay_per_length in
  Alcotest.(check bool) "narrower worse" true
    (at (0.5 *. w_star) > best.Wire_sizing.delay_per_length);
  Alcotest.(check bool) "wider worse" true
    (at (2.0 *. w_star) > best.Wire_sizing.delay_per_length)

(* ---------------- Chain ---------------- *)

let test_chain_clean_at_low_l () =
  let cfg =
    Rlc_ringosc.Chain.config ~stages:3 ~segments:6 node100 ~l:0.5e-6 ~h:0.006
      ~k:200.0
  in
  let v = Rlc_ringosc.Chain.check (Rlc_ringosc.Chain.simulate ~cycles:4 cfg) in
  Alcotest.(check bool) "edges propagate" true (v.Rlc_ringosc.Chain.output_edges > 0);
  Alcotest.(check int) "no spurious edges" 0 v.Rlc_ringosc.Chain.spurious_edges

let test_chain_false_switching_at_high_l () =
  let cfg = Rlc_ringosc.Chain.rc_sized_config ~segments:8 node100 ~l:4.5e-6 in
  let v = Rlc_ringosc.Chain.check (Rlc_ringosc.Chain.simulate ~cycles:4 cfg) in
  Alcotest.(check bool) "spurious switching detected" true
    v.Rlc_ringosc.Chain.false_switching

let test_chain_250nm_clean_everywhere () =
  let cfg = Rlc_ringosc.Chain.rc_sized_config ~segments:8 node250 ~l:5e-6 in
  let v = Rlc_ringosc.Chain.check (Rlc_ringosc.Chain.simulate ~cycles:4 cfg) in
  Alcotest.(check bool) "250nm clean at l=5" true
    (not v.Rlc_ringosc.Chain.false_switching)

(* ---------------- Taper ---------------- *)

let test_taper_textbook_limit () =
  (* with negligible parasitic cp the optimal ratio is e *)
  let slim = Rlc_tech.Driver.make ~rs:1e4 ~c0:1e-15 ~cp:1e-21 in
  check_close "rho* -> e" (Float.exp 1.0) (Taper.optimal_ratio slim) ~tol:1e-3

let test_taper_ratio_is_optimal () =
  let d = node100.Rlc_tech.Node.driver in
  let rho = Taper.optimal_ratio d in
  let delay r = Taper.delay_of_ratio d ~load:1e-12 r in
  Alcotest.(check bool) "stationary point" true
    (delay rho < delay (rho *. 1.2) && delay rho < delay (rho /. 1.2));
  Alcotest.(check bool) "parasitics push rho above e" true
    (rho > Float.exp 1.0)

let test_taper_design_consistency () =
  let d = node100.Rlc_tech.Node.driver in
  let c = Taper.design d ~load:1e-12 in
  Alcotest.(check int) "sizes match stages" c.Taper.stages
    (List.length c.Taper.sizes);
  (* geometric: last size * ratio lands on the load *)
  let last = List.nth c.Taper.sizes (c.Taper.stages - 1) in
  check_close "lands on the load" 1e-12
    (d.Rlc_tech.Driver.c0 *. last *. c.Taper.ratio)
    ~tol:1e-9;
  Alcotest.check_raises "load too small"
    (Invalid_argument
       "Taper: load must exceed the first stage's input capacitance")
    (fun () -> ignore (Taper.design d ~load:1e-18))

let test_taper_through_wire () =
  let chain, total =
    Taper.chain_through_wire node100 ~l:1.5e-6 ~wire_length:0.008 ~load:2e-12
  in
  Alcotest.(check bool) "multi-stage" true (chain.Taper.stages >= 3);
  Alcotest.(check bool) "total includes the wire" true
    (total > chain.Taper.delay);
  (* the jointly optimized wire driver must beat naive extremes *)
  let naive k =
    let gate = node100.Rlc_tech.Node.driver.Rlc_tech.Driver.c0 *. k in
    let c = Taper.design node100.Rlc_tech.Node.driver ~load:gate in
    let syn =
      Rlc_tech.Driver.make ~rs:node100.Rlc_tech.Node.driver.Rlc_tech.Driver.rs
        ~c0:(2e-12 /. k) ~cp:node100.Rlc_tech.Node.driver.Rlc_tech.Driver.cp
    in
    c.Taper.delay
    +. Delay.of_stage
         (Stage.make
            ~line:(Line.of_node node100 ~l:1.5e-6)
            ~driver:syn ~h:0.008 ~k)
  in
  Alcotest.(check bool) "beats undersized driver" true (total < naive 30.0);
  Alcotest.(check bool) "beats oversized driver" true (total < naive 3000.0)

(* ---------------- Corners ---------------- *)

let test_corners_typical_matches_plain () =
  let rc = Rc_opt.optimize node100 in
  let h = rc.Rc_opt.h_opt and k = rc.Rc_opt.k_opt in
  let stage = Corners.apply node100 Corners.typical ~h ~k in
  (* typical scales are 1.0, so only l_frac differs from a bare stage *)
  check_close "r unchanged" node100.Rlc_tech.Node.r stage.Stage.line.Line.r;
  check_close "l at fraction"
    (0.35 *. node100.Rlc_tech.Node.l_max)
    stage.Stage.line.Line.l

let test_corners_window_ordering () =
  let rc = Rc_opt.optimize node100 in
  let h = rc.Rc_opt.h_opt and k = rc.Rc_opt.k_opt in
  let evals = Corners.evaluate node100 ~h ~k in
  let by name =
    List.find (fun e -> e.Corners.corner.Corners.name = name) evals
  in
  Alcotest.(check bool) "fast < typical < slow" true
    ((by "fast").Corners.delay_per_length
     < (by "typical").Corners.delay_per_length
    && (by "typical").Corners.delay_per_length
       < (by "slow").Corners.delay_per_length);
  Alcotest.(check bool) "si-worst is the ringing corner" true
    ((by "si-worst").Corners.underdamped
    && (by "si-worst").Corners.overshoot > (by "slow").Corners.overshoot);
  let lo, hi = Corners.delay_window node100 ~h ~k in
  Alcotest.(check bool) "window spans the set" true
    (lo = (by "fast").Corners.delay_per_length
    && hi >= (by "slow").Corners.delay_per_length)

let test_corners_window_contains_typical () =
  let rc = Rc_opt.optimize node250 in
  let lo, hi =
    Corners.delay_window node250 ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt
  in
  let typ =
    List.find
      (fun e -> e.Corners.corner.Corners.name = "typical")
      (Corners.evaluate node250 ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt)
  in
  Alcotest.(check bool) "typical inside window" true
    (lo <= typ.Corners.delay_per_length && typ.Corners.delay_per_length <= hi)

(* ---------------- Bus ---------------- *)

let mk_bus ?(n = 4) () =
  Bus.make ~n ~r:4400.0 ~l:2e-6 ~lm:0.8e-6 ~cg:85e-12 ~cc:40e-12

let test_bus_mode_spectrum () =
  let bus = mk_bus ~n:3 () in
  (* theta_j = cos(j pi / 4) = {sqrt2/2, 0, -sqrt2/2} *)
  let m1 = Bus.mode_line bus 1 in
  let m2 = Bus.mode_line bus 2 in
  let m3 = Bus.mode_line bus 3 in
  let s2 = Float.sqrt 2.0 /. 2.0 in
  check_close "mode1 l" (2e-6 +. (2.0 *. 0.8e-6 *. s2)) m1.Line.l;
  check_close "mode2 l" 2e-6 m2.Line.l;
  check_close "mode3 l" (2e-6 -. (2.0 *. 0.8e-6 *. s2)) m3.Line.l;
  check_close "mode2 c" (85e-12 +. (2.0 *. 40e-12)) m2.Line.c

let test_bus_validation () =
  Alcotest.check_raises "lm too large"
    (Invalid_argument "Bus.make: need |lm| < l/2 (modal positive-definiteness)")
    (fun () ->
      ignore (Bus.make ~n:4 ~r:1.0 ~l:1e-6 ~lm:0.6e-6 ~cg:1e-12 ~cc:0.0));
  let bus = mk_bus () in
  Alcotest.check_raises "mode out of range"
    (Invalid_argument "Bus.mode_line: mode out of range") (fun () ->
      ignore (Bus.mode_line bus 5))

let test_bus_envelope_widens_with_n () =
  let driver = node100.Rlc_tech.Node.driver in
  let spread n =
    let bus = mk_bus ~n () in
    let lo, hi = Bus.delay_envelope bus ~driver ~h:0.011 ~k:500.0 in
    (hi -. lo) /. lo
  in
  Alcotest.(check bool) "wider bus = wider envelope" true
    (spread 8 > spread 2)

let test_bus_miller_range_approaches_4x () =
  (* with cg ~ cc the modal capacitance range approaches
     (cg + 4cc)/cg-ish as N grows; check monotone growth and the bound *)
  let range n =
    let bus = Bus.make ~n ~r:4400.0 ~l:0.0 ~lm:0.0 ~cg:50e-12 ~cc:50e-12 in
    let lo, hi = Bus.miller_capacitance_range bus in
    hi /. lo
  in
  Alcotest.(check bool) "grows with n" true (range 16 > range 3);
  Alcotest.(check bool) "bounded by (cg+4cc)/cg" true
    (range 32 < (50.0 +. 200.0) /. 50.0)

let test_bus_victim_noise_zero_without_coupling () =
  let bus = Bus.make ~n:5 ~r:4400.0 ~l:2e-6 ~lm:0.0 ~cg:100e-12 ~cc:0.0 in
  check_close "uncoupled bus has no victim noise" 0.0
    (Bus.victim_noise_peak bus ~driver:node100.Rlc_tech.Node.driver ~h:0.011
       ~k:500.0)
    ~tol:1e-9

(* ---------------- Shielding ---------------- *)

let test_shielding_layouts () =
  let rc = Rc_opt.optimize node100 in
  let results =
    Shielding.analyze node100 ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt
  in
  Alcotest.(check int) "three layouts" 3 (List.length results);
  let find l = List.find (fun r -> r.Shielding.layout = l) results in
  let dense = find Shielding.Dense in
  let shielded = find Shielding.Shielded in
  Alcotest.(check bool) "shields kill noise" true
    (shielded.Shielding.victim_noise = 0.0
    && dense.Shielding.victim_noise > 0.05);
  Alcotest.(check bool) "shields kill spread" true
    (shielded.Shielding.delay_spread = 0.0
    && dense.Shielding.delay_spread > 0.1);
  Alcotest.(check bool) "shields pin the return (lower l)" true
    (shielded.Shielding.l_eff < 0.6 *. dense.Shielding.l_eff);
  Alcotest.(check bool) "area accounting" true
    (dense.Shielding.tracks_per_signal = 1.0
    && shielded.Shielding.tracks_per_signal = 2.0)

(* ---------------- Thermal ---------------- *)

let g100nm = node100.Rlc_tech.Node.geometry

let test_thermal_quadratic () =
  let dt i =
    Rlc_extraction.Thermal.temperature_rise_no_feedback g100nm ~i_rms:i
  in
  check_close "quadratic in current" (4.0 *. dt 5e-3) (dt 10e-3) ~tol:1e-9

let test_thermal_feedback_increases_rise () =
  let i = 50e-3 in
  Alcotest.(check bool) "feedback adds" true
    (Rlc_extraction.Thermal.temperature_rise g100nm ~i_rms:i
    > Rlc_extraction.Thermal.temperature_rise_no_feedback g100nm ~i_rms:i)

let test_thermal_runaway () =
  let i_run = Rlc_extraction.Thermal.runaway_current g100nm in
  (* just below: finite; just above: raises *)
  Alcotest.(check bool) "finite below runaway" true
    (Float.is_finite
       (Rlc_extraction.Thermal.temperature_rise g100nm ~i_rms:(0.99 *. i_run)));
  Alcotest.check_raises "diverges above"
    (Invalid_argument "Thermal.temperature_rise: beyond thermal runaway")
    (fun () ->
      ignore
        (Rlc_extraction.Thermal.temperature_rise g100nm
           ~i_rms:(1.01 *. i_run)))

let test_thermal_budget_inverse () =
  let i = Rlc_extraction.Thermal.max_current_for_rise g100nm ~dt_max:10.0 in
  check_close "budget round-trips" 10.0
    (Rlc_extraction.Thermal.temperature_rise g100nm ~i_rms:i)
    ~tol:1e-6

let test_thermal_paper_claim () =
  (* the ring-oscillator RMS currents (~5 mA, Figure 12) heat the wire
     by well under a kelvin: the paper's "reliability does not degrade"
     conclusion, quantified *)
  Alcotest.(check bool) "RO current is thermally benign" true
    (Rlc_extraction.Thermal.temperature_rise g100nm ~i_rms:5e-3 < 0.5)

(* ---------------- Sensitivity ---------------- *)

let test_sensitivity_matches_fd () =
  let stage = Rc_opt.stage node100 ~l:1.5e-6 in
  let s = Sensitivity.of_stage stage in
  let fd perturb scale =
    let h = 1e-5 *. scale in
    (Delay.of_stage (perturb h) -. Delay.of_stage (perturb (-.h)))
    /. (2.0 *. h)
  in
  let { Line.r; l; c } = stage.Stage.line in
  check_rel "d tau/d l" (fd (fun d -> Stage.with_l stage (l +. d)) l)
    s.Sensitivity.wrt_l ~tol:1e-4;
  let with_c d =
    Stage.make
      ~line:(Line.make ~r ~l ~c:(c +. d))
      ~driver:stage.Stage.driver ~h:stage.Stage.h ~k:stage.Stage.k
  in
  check_rel "d tau/d c" (fd with_c c) s.Sensitivity.wrt_c ~tol:1e-4;
  let with_r d =
    Stage.make
      ~line:(Line.make ~r:(r +. d) ~l ~c)
      ~driver:stage.Stage.driver ~h:stage.Stage.h ~k:stage.Stage.k
  in
  check_rel "d tau/d r" (fd with_r r) s.Sensitivity.wrt_r ~tol:1e-4

let test_sensitivity_at_zero_l () =
  (* an RC line: no central step in l fits below l = 0, yet b2 is
     linear in l, so d tau/d l is defined and must match a forward
     difference of the solved delay *)
  let stage = Stage.of_node node250 ~l:0.0 ~h:0.005 ~k:200.0 in
  let s = Sensitivity.of_stage stage in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    Sensitivity.
      [
        ("wrt_l", s.wrt_l); ("wrt_c", s.wrt_c); ("wrt_r", s.wrt_r);
        ("wrt_rs", s.wrt_rs); ("elasticity_c", s.elasticity_c);
        ("elasticity_r", s.elasticity_r);
      ];
  Alcotest.(check (float 0.0)) "elasticity_l" 0.0 s.Sensitivity.elasticity_l;
  let dl = 1e-10 in
  let fwd =
    (Delay.of_stage (Stage.with_l stage dl) -. Delay.of_stage stage) /. dl
  in
  check_close ~tol:1e-3 "d tau/d l over a forward difference" 1.0
    (s.Sensitivity.wrt_l /. fwd)

let test_sensitivity_all_positive () =
  (* more parasitics or weaker driver = more delay, for this regime *)
  let s = Sensitivity.of_stage (Rc_opt.stage node100 ~l:1e-6) in
  Alcotest.(check bool) "dl positive" true (s.Sensitivity.wrt_l > 0.0);
  Alcotest.(check bool) "dc positive" true (s.Sensitivity.wrt_c > 0.0);
  Alcotest.(check bool) "dr positive" true (s.Sensitivity.wrt_r > 0.0);
  Alcotest.(check bool) "drs positive" true (s.Sensitivity.wrt_rs > 0.0)

let test_sensitivity_elasticity_crossover () =
  (* the RC -> LC transition: inductance elasticity grows with l while
     resistance elasticity falls *)
  let el l = Sensitivity.of_stage (Rc_opt.stage node100 ~l) in
  let lo = el 0.5e-6 and hi = el 4e-6 in
  Alcotest.(check bool) "l-elasticity grows" true
    (hi.Sensitivity.elasticity_l > lo.Sensitivity.elasticity_l);
  Alcotest.(check bool) "r-elasticity falls" true
    (hi.Sensitivity.elasticity_r < lo.Sensitivity.elasticity_r)

let test_sensitivity_spread_vs_monte_carlo () =
  (* the linearised spread must approximate the sampled spread for a
     small inductance band *)
  let stage = Rc_opt.stage node100 ~l:2e-6 in
  let band = 0.25e-6 in
  let linear =
    Sensitivity.delay_spread_estimate stage ~l_uncertainty:band
  in
  let dist =
    {
      Variation.l_min = 2e-6 -. band;
      l_max = 2e-6 +. band;
      miller_min = 1.0;
      miller_max = 1.0;
      rs_sigma = 0.0;
    }
  in
  let stats =
    Variation.delay_statistics ~n:400 node100 ~h:stage.Stage.h
      ~k:stage.Stage.k dist
  in
  let sampled = (stats.Variation.max -. stats.Variation.min) *. stage.Stage.h in
  check_close "linear ~ sampled spread" sampled linear ~tol:0.05

(* ---------------- Frequency ---------------- *)

let test_frequency_dc_and_rolloff () =
  let stage = mk_stage () in
  let low = Frequency.response stage 1e5 in
  Alcotest.(check bool) "flat at low f" true (Float.abs low.Frequency.mag_db < 0.01);
  let high = Frequency.response stage 1e12 in
  Alcotest.(check bool) "rolled off" true (high.Frequency.mag_db < -40.0)

let test_frequency_bandwidth () =
  let stage = mk_stage () in
  let bw = Frequency.bandwidth_3db stage in
  let at_bw = Frequency.response stage bw in
  check_close "-3 dB at the bandwidth" (-3.0103) at_bw.Frequency.mag_db
    ~tol:1e-2;
  Alcotest.(check bool) "plausible range" true (bw > 1e8 && bw < 1e11)

let test_frequency_bandwidth_opt () =
  let stage = mk_stage () in
  (* the option form agrees with the raising wrapper when in range *)
  (match Frequency.bandwidth_3db_opt stage with
  | Some bw -> check_close "same as wrapper" (Frequency.bandwidth_3db stage) bw
  | None -> Alcotest.fail "expected a bandwidth for the reference stage");
  (* capping the search below the corner yields None, not an exception *)
  Alcotest.(check bool) "in-band below the corner" true
    (Frequency.bandwidth_3db_opt ~f_max:1e7 stage = None);
  Alcotest.check_raises "wrapper raises instead" Not_found (fun () ->
      ignore (Frequency.bandwidth_3db ~f_max:1e7 stage))

let test_frequency_peaking_iff_underdamped () =
  let over = Rc_opt.stage node100 ~l:0.0 in
  Alcotest.(check bool) "no peaking overdamped" true
    (Frequency.resonance over = None);
  let under = Rc_opt.stage node100 ~l:2e-6 in
  match Frequency.resonance under with
  | Some (f, db) ->
      Alcotest.(check bool) "peak positive" true (db > 1.0);
      Alcotest.(check bool) "GHz-range peak" true (f > 1e8 && f < 1e10)
  | None -> Alcotest.fail "underdamped stage must peak"

let test_frequency_peaking_grows_with_l () =
  let peak l =
    match Frequency.resonance (Rc_opt.stage node100 ~l) with
    | Some (_, db) -> db
    | None -> 0.0
  in
  Alcotest.(check bool) "monotone peaking" true
    (peak 1e-6 < peak 2e-6 && peak 2e-6 < peak 4e-6)

let test_frequency_group_delay_dc_limit () =
  (* group delay at f -> 0 equals the first moment b1 *)
  let stage = mk_stage () in
  let b1 = (Pade.coeffs stage).Pade.b1 in
  check_close "gd(low f) = b1" b1 (Frequency.group_delay stage 1e6) ~tol:1e-3

let test_frequency_bode_shape () =
  let stage = mk_stage () in
  let pts = Frequency.bode ~points:50 stage ~f_min:1e6 ~f_max:1e11 in
  Alcotest.(check int) "points" 50 (List.length pts);
  let first = List.hd pts and last = List.nth pts 49 in
  Alcotest.(check bool) "descending overall" true
    (last.Frequency.mag_db < first.Frequency.mag_db -. 20.0)

(* ---------------- Skin effect ---------------- *)

let g100 = node100.Rlc_tech.Node.geometry

let test_skin_depth_scaling () =
  let d1 = Rlc_extraction.Skin.skin_depth 1e9 in
  let d4 = Rlc_extraction.Skin.skin_depth 4e9 in
  check_close "delta ~ 1/sqrt(f)" (d1 /. 2.0) d4 ~tol:1e-9;
  (* copper at 1 GHz: ~2.09 um *)
  check_close "copper @ 1GHz" 2.09e-6 d1 ~tol:2e-2

let test_skin_resistance_limits () =
  let r_dc = Rlc_extraction.Resistance.per_length g100 in
  check_close "dc limit" r_dc (Rlc_extraction.Skin.resistance_at g100 0.0);
  let fc = Rlc_extraction.Skin.corner_frequency g100 in
  check_close "sqrt(2) at corner" (r_dc *. Float.sqrt 2.0)
    (Rlc_extraction.Skin.resistance_at g100 fc);
  (* far above the corner: sqrt(f) law *)
  let r100 = Rlc_extraction.Skin.resistance_at g100 (100.0 *. fc) in
  let r400 = Rlc_extraction.Skin.resistance_at g100 (400.0 *. fc) in
  check_close "sqrt(f) crowding" 2.0 (r400 /. r100) ~tol:1e-2

let test_skin_correction_damps () =
  let stage = Rc_opt.stage node100 ~l:2e-6 in
  let c = Skin_effect.correct g100 stage in
  Alcotest.(check bool) "resistance grows" true
    (c.Skin_effect.r_effective > stage.Stage.line.Line.r);
  let dc_ov, skin_ov = Skin_effect.overshoot_comparison g100 stage in
  Alcotest.(check bool) "overshoot shrinks" true (skin_ov < dc_ov);
  Alcotest.(check bool) "correction is moderate" true
    (skin_ov > 0.8 *. dc_ov)

let test_skin_correction_fixed_point () =
  let stage = Rc_opt.stage node100 ~l:2e-6 in
  let c = Skin_effect.correct g100 stage in
  (* re-correcting the corrected stage's r must be a no-op *)
  let f = c.Skin_effect.frequency in
  let expected_ratio =
    Rlc_extraction.Skin.resistance_at g100 f
    /. Rlc_extraction.Skin.resistance_at g100 0.0
  in
  check_close "fixed point"
    (stage.Stage.line.Line.r *. expected_ratio)
    c.Skin_effect.r_effective ~tol:1e-3

(* ---------------- Eye ---------------- *)

let test_eye_prbs_properties () =
  let bits = Rlc_ringosc.Eye.prbs ~seed:0b1010101 127 in
  Alcotest.(check int) "length" 127 (List.length bits);
  (* maximal 7-bit LFSR: 64 ones, 63 zeros per period *)
  let ones = List.length (List.filter (fun b -> b) bits) in
  Alcotest.(check int) "balance" 64 ones;
  (* deterministic *)
  Alcotest.(check bool) "deterministic" true
    (bits = Rlc_ringosc.Eye.prbs ~seed:0b1010101 127);
  Alcotest.check_raises "zero seed" (Invalid_argument "Eye.prbs: zero seed")
    (fun () -> ignore (Rlc_ringosc.Eye.prbs ~seed:0 8))

let test_eye_closes_with_inductance () =
  let rc = Rc_opt.optimize node100 in
  let measure l =
    Rlc_ringosc.Eye.run
      (Rlc_ringosc.Eye.config ~segments:8 ~bits:24 node100 ~l
         ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt)
  in
  let clean = measure 0.0 in
  let noisy = measure 3e-6 in
  Alcotest.(check bool) "clean eye mostly open" true
    (clean.Rlc_ringosc.Eye.eye_opening > 0.85);
  Alcotest.(check bool) "inductance closes the eye" true
    (noisy.Rlc_ringosc.Eye.eye_opening
    < clean.Rlc_ringosc.Eye.eye_opening -. 0.2);
  Alcotest.(check bool) "jitter grows" true
    (noisy.Rlc_ringosc.Eye.jitter > 3.0 *. clean.Rlc_ringosc.Eye.jitter)

let test_eye_validation () =
  Alcotest.check_raises "few bits" (Invalid_argument "Eye.config: bits < 8")
    (fun () ->
      ignore
        (Rlc_ringosc.Eye.config ~bits:4 node100 ~l:0.0 ~h:0.01 ~k:100.0))

let () =
  Alcotest.run "extensions"
    [
      ( "third-order",
        [
          Alcotest.test_case "b1/b2 agree with Pade" `Quick
            test_third_order_agrees_with_pade;
          Alcotest.test_case "taylor O(s^4)" `Quick test_third_order_taylor;
          Alcotest.test_case "step response limits" `Quick
            test_third_order_step_response;
          Alcotest.test_case "closer to exact than Pade-2" `Slow
            test_third_order_delay_between_pade_and_exact;
          Alcotest.test_case "delay solves its equation" `Quick
            test_third_order_solves_equation;
        ] );
      ( "power",
        [
          Alcotest.test_case "components" `Quick test_power_components;
          Alcotest.test_case "monotonicity" `Quick test_power_monotonicity;
          Alcotest.test_case "lambda=0 is delay optimum" `Quick
            test_power_lambda_zero_is_delay_optimum;
          Alcotest.test_case "pareto trade-off" `Slow test_power_pareto_tradeoff;
        ] );
      ( "insertion",
        [
          Alcotest.test_case "long net ~ continuous" `Quick
            test_insertion_long_net_matches_continuous;
          Alcotest.test_case "short net single segment" `Quick
            test_insertion_short_net;
          Alcotest.test_case "k reoptimized for pinned h" `Quick
            test_insertion_k_reoptimized;
          Alcotest.test_case "validation" `Quick test_insertion_validation;
        ] );
      ( "coupled-analytic",
        [
          Alcotest.test_case "mode lines" `Quick test_coupled_mode_lines;
          Alcotest.test_case "passivity validation" `Quick
            test_coupled_passivity_validation;
          Alcotest.test_case "uncoupled limit" `Quick
            test_coupled_uncoupled_limit;
          Alcotest.test_case "inductive flip (spread < 0)" `Quick
            test_coupled_inductive_spread_negative;
          Alcotest.test_case "capacitive ordering (spread > 0)" `Quick
            test_coupled_capacitive_spread_positive;
          Alcotest.test_case "victim noise positive" `Quick
            test_coupled_victim_noise_positive;
        ] );
      ( "coupled-transient",
        [
          Alcotest.test_case "modes match analytic" `Slow
            test_coupled_transient_modes;
          Alcotest.test_case "victim noise" `Slow
            test_coupled_transient_victim_noise;
        ] );
      ( "variation",
        [
          Alcotest.test_case "deterministic seeding" `Quick
            test_variation_deterministic;
          Alcotest.test_case "samples in range" `Quick
            test_variation_samples_in_range;
          Alcotest.test_case "statistics sane" `Quick
            test_variation_statistics_sane;
          Alcotest.test_case "mid sizing more robust" `Slow
            test_variation_mid_sizing_more_robust;
        ] );
      ( "wire-sizing",
        [
          Alcotest.test_case "parameter scaling" `Quick test_wire_at_scaling;
          Alcotest.test_case "interior optimum" `Slow
            test_wire_sizing_interior_optimum;
        ] );
      ( "chain",
        [
          Alcotest.test_case "clean at low l" `Slow test_chain_clean_at_low_l;
          Alcotest.test_case "false switching at high l" `Slow
            test_chain_false_switching_at_high_l;
          Alcotest.test_case "250nm clean at l=5" `Slow
            test_chain_250nm_clean_everywhere;
        ] );
      ( "taper",
        [
          Alcotest.test_case "textbook e limit" `Quick
            test_taper_textbook_limit;
          Alcotest.test_case "ratio optimality" `Quick
            test_taper_ratio_is_optimal;
          Alcotest.test_case "design consistency" `Quick
            test_taper_design_consistency;
          Alcotest.test_case "through a wire" `Quick test_taper_through_wire;
        ] );
      ( "corners",
        [
          Alcotest.test_case "typical stage" `Quick
            test_corners_typical_matches_plain;
          Alcotest.test_case "window ordering" `Quick
            test_corners_window_ordering;
          Alcotest.test_case "window contains typical" `Quick
            test_corners_window_contains_typical;
        ] );
      ( "bus",
        [
          Alcotest.test_case "mode spectrum" `Quick test_bus_mode_spectrum;
          Alcotest.test_case "validation" `Quick test_bus_validation;
          Alcotest.test_case "envelope widens with n" `Quick
            test_bus_envelope_widens_with_n;
          Alcotest.test_case "miller range -> 4x" `Quick
            test_bus_miller_range_approaches_4x;
          Alcotest.test_case "no coupling, no noise" `Quick
            test_bus_victim_noise_zero_without_coupling;
        ] );
      ( "shielding",
        [ Alcotest.test_case "layout comparison" `Quick test_shielding_layouts ] );
      ( "thermal",
        [
          Alcotest.test_case "quadratic" `Quick test_thermal_quadratic;
          Alcotest.test_case "feedback increases rise" `Quick
            test_thermal_feedback_increases_rise;
          Alcotest.test_case "runaway" `Quick test_thermal_runaway;
          Alcotest.test_case "budget inverse" `Quick
            test_thermal_budget_inverse;
          Alcotest.test_case "paper's reliability claim" `Quick
            test_thermal_paper_claim;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "matches finite differences" `Quick
            test_sensitivity_matches_fd;
          Alcotest.test_case "signs" `Quick test_sensitivity_all_positive;
          Alcotest.test_case "at l = 0" `Quick test_sensitivity_at_zero_l;
          Alcotest.test_case "elasticity crossover" `Quick
            test_sensitivity_elasticity_crossover;
          Alcotest.test_case "spread vs monte-carlo" `Slow
            test_sensitivity_spread_vs_monte_carlo;
        ] );
      ( "frequency",
        [
          Alcotest.test_case "dc & rolloff" `Quick test_frequency_dc_and_rolloff;
          Alcotest.test_case "bandwidth" `Quick test_frequency_bandwidth;
          Alcotest.test_case "bandwidth option form" `Quick
            test_frequency_bandwidth_opt;
          Alcotest.test_case "peaking iff underdamped" `Quick
            test_frequency_peaking_iff_underdamped;
          Alcotest.test_case "peaking grows with l" `Quick
            test_frequency_peaking_grows_with_l;
          Alcotest.test_case "group delay dc limit" `Quick
            test_frequency_group_delay_dc_limit;
          Alcotest.test_case "bode shape" `Quick test_frequency_bode_shape;
        ] );
      ( "skin-effect",
        [
          Alcotest.test_case "skin depth scaling" `Quick
            test_skin_depth_scaling;
          Alcotest.test_case "resistance limits" `Quick
            test_skin_resistance_limits;
          Alcotest.test_case "correction damps ringing" `Quick
            test_skin_correction_damps;
          Alcotest.test_case "fixed point" `Quick
            test_skin_correction_fixed_point;
        ] );
      ( "eye",
        [
          Alcotest.test_case "prbs properties" `Quick test_eye_prbs_properties;
          Alcotest.test_case "closes with inductance" `Slow
            test_eye_closes_with_inductance;
          Alcotest.test_case "validation" `Quick test_eye_validation;
        ] );
    ]
