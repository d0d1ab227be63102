(* Tests for rlc_core: the paper's model and optimizer.  Validates the
   Padé coefficients and their analytic derivatives against finite
   differences, the pole algebra against the quadratic formula, the
   delay solver against the step response, the closed-form RC optimum
   against Table 1, and the Newton optimizer against Nelder-Mead. *)

open Approx

open Rlc_core

let node100 = Rlc_tech.Presets.node_100nm
let node250 = Rlc_tech.Presets.node_250nm

let mk_stage ?(node = node100) ?(l = 1.5e-6) ?(h = 0.012) ?(k = 300.0) () =
  Stage.of_node node ~l ~h ~k

(* random but physical stage generator for property tests *)
let stage_gen =
  QCheck2.Gen.(
    let* l = float_range 0.0 5e-6 in
    let* h = float_range 2e-3 3e-2 in
    let* k = float_range 30.0 1500.0 in
    let* pick = bool in
    return (Stage.of_node (if pick then node100 else node250) ~l ~h ~k))

(* ---------------- Line ---------------- *)

let test_line_z0_lossless () =
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  check_close "z0" 100.0 (Line.z0_lossless line);
  Alcotest.check_raises "rc line has no z0"
    (Invalid_argument "Line.z0_lossless: l = 0") (fun () ->
      ignore (Line.z0_lossless (Line.make ~r:1.0 ~l:0.0 ~c:1e-12)))

let test_line_z0_high_frequency_limit () =
  (* at very high frequency Z0 -> sqrt(l/c) *)
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  let s = Rlc_numerics.Cx.make 0.0 1e15 in
  let z = Line.z0 line s in
  check_close "hf z0" 100.0 (Rlc_numerics.Cx.norm z) ~tol:1e-3

let test_line_propagation_consistency () =
  (* theta * Z0 = r + s l *)
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  let s = Rlc_numerics.Cx.make 1e8 3e9 in
  let open Rlc_numerics.Cx in
  let prod = Line.propagation line s *: Line.z0 line s in
  let expected = of_float 4400.0 +: scale 1e-6 s in
  Alcotest.(check bool) "theta*z0 = r+sl" true (close ~tol:1e-9 prod expected)

let test_line_time_of_flight () =
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  check_close "tof" (0.01 *. Float.sqrt 1e-16) (Line.time_of_flight line ~length:0.01)

(* ---------------- Two_port ---------------- *)

let test_two_port_reciprocity () =
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  let s = Rlc_numerics.Cx.make 1e8 2e9 in
  let m = Two_port.rlc_line line ~length:0.01 ~s in
  let d = Two_port.determinant m in
  check_close "det re" 1.0 (Rlc_numerics.Cx.re d) ~tol:1e-6;
  check_close "det im" 0.0 (Rlc_numerics.Cx.im d) ~tol:1e-6;
  (* symmetric structure: A = D *)
  Alcotest.(check bool)
    "a = d" true
    (Rlc_numerics.Cx.close m.Two_port.a m.Two_port.d)

let test_two_port_cascade_identity () =
  let z = Rlc_numerics.Cx.make 5.0 1.0 in
  let m = Two_port.series_impedance z in
  let c = Two_port.cascade Two_port.identity m in
  Alcotest.(check bool) "id * m = m" true (Rlc_numerics.Cx.close c.Two_port.b z)

let test_two_port_short_line_limit () =
  (* a very short line behaves as series z*len + shunt y*len *)
  let line = Line.make ~r:4400.0 ~l:1e-6 ~c:100e-12 in
  let s = Rlc_numerics.Cx.make 0.0 1e9 in
  let len = 1e-6 in
  let m = Two_port.rlc_line line ~length:len ~s in
  let open Rlc_numerics.Cx in
  let z_expected = scale len (of_float 4400.0 +: scale 1e-6 s) in
  Alcotest.(check bool)
    "b ~ z len" true
    (norm (m.Two_port.b -: z_expected) < 1e-6 *. norm z_expected)

let test_two_port_divider () =
  (* pure resistive divider via two-ports: series R then shunt G;
     Vout/Vin with open output = 1/(1 + R G) *)
  let open Rlc_numerics.Cx in
  let chain =
    Two_port.cascade
      (Two_port.series_impedance (of_float 3.0))
      (Two_port.shunt_admittance (of_float 0.5))
  in
  let h = Two_port.voltage_transfer_into_open chain in
  check_close "divider" 0.4 (re h)

(* ---------------- Transfer ---------------- *)

let test_transfer_dc () =
  let stage = mk_stage () in
  check_close "H(0) = 1" 1.0
    (Rlc_numerics.Cx.re (Transfer.eval stage Rlc_numerics.Cx.zero))

let test_transfer_direct_agreement () =
  let stage = mk_stage () in
  List.iter
    (fun (re, im) ->
      let s = Rlc_numerics.Cx.make re im in
      let a = Transfer.eval stage s in
      let b = Transfer.eval_direct stage s in
      Alcotest.(check bool)
        (Printf.sprintf "H agree at %g+%gi" re im)
        true
        (Rlc_numerics.Cx.close ~tol:1e-9 a b))
    [ (0.0, 1e8); (0.0, 1e10); (1e9, 1e9); (-1e8, 5e9); (1e6, 0.0) ]

let test_transfer_lowpass () =
  let stage = mk_stage () in
  let low = Transfer.magnitude_db stage 1e6 in
  let high = Transfer.magnitude_db stage 1e12 in
  Alcotest.(check bool) "low-frequency flat" true (Float.abs low < 0.5);
  Alcotest.(check bool) "high-frequency rolloff" true (high < -40.0)

let test_transfer_overflow_guard () =
  (* deep right-half-plane: must return 0, not NaN (Talbot contour) *)
  let stage = mk_stage () in
  let h = Transfer.eval stage (Rlc_numerics.Cx.make 1e14 1e14) in
  Alcotest.(check bool) "finite" true (Rlc_numerics.Cx.is_finite h)

(* ---------------- Stage ---------------- *)

let test_stage_accessors () =
  let stage = mk_stage ~k:300.0 () in
  check_close "rs" (7534.0 /. 300.0) (Stage.rs stage);
  check_close "cp" (3.68e-15 *. 300.0) (Stage.cp stage);
  check_close "cl" (0.758e-15 *. 300.0) (Stage.cl stage);
  check_close "total r" (4400.0 *. 0.012) (Stage.total_resistance stage);
  check_close "total c" (123.33e-12 *. 0.012) (Stage.total_capacitance stage);
  check_close "total l" (1.5e-6 *. 0.012) (Stage.total_inductance stage)

let test_stage_with () =
  let stage = mk_stage () in
  check_close "with_h" 0.02 (Stage.with_h stage 0.02).Stage.h;
  check_close "with_k" 99.0 (Stage.with_k stage 99.0).Stage.k;
  check_close "with_l" 2e-6 (Stage.with_l stage 2e-6).Stage.line.Line.l;
  Alcotest.check_raises "bad h" (Invalid_argument "Stage.make: h must be positive")
    (fun () -> ignore (Stage.with_h stage 0.0))

(* ---------------- Pade ---------------- *)

let test_pade_positive () =
  let cs = Pade.coeffs (mk_stage ()) in
  Alcotest.(check bool) "b1 > 0" true (cs.Pade.b1 > 0.0);
  Alcotest.(check bool) "b2 > 0" true (cs.Pade.b2 > 0.0)

let test_pade_b1_equals_elmore () =
  Alcotest.(check bool) "b1 = Elmore delay" true
    (Elmore.equals_b1 (mk_stage ()));
  Alcotest.(check bool) "b1 = Elmore (250nm)" true
    (Elmore.equals_b1 (mk_stage ~node:node250 ~l:0.3e-6 ~h:0.014 ~k:578.0 ()))

let test_pade_b1_independent_of_l () =
  let stage = mk_stage ~l:0.0 () in
  let b1_0 = (Pade.coeffs stage).Pade.b1 in
  let b1_5 = (Pade.coeffs (Stage.with_l stage 5e-6)).Pade.b1 in
  check_close "b1(l=0) = b1(l=5)" b1_0 b1_5

let test_pade_b2_linear_in_l () =
  (* b2 = b2(0) + l (c h^2/2 + C_L h) *)
  let stage = mk_stage ~l:0.0 () in
  let b2_0 = (Pade.coeffs stage).Pade.b2 in
  let l = 2e-6 in
  let b2_l = (Pade.coeffs (Stage.with_l stage l)).Pade.b2 in
  let h = stage.Stage.h in
  let weight = (stage.Stage.line.Line.c *. h *. h /. 2.0) +. (Stage.cl stage *. h) in
  check_close "b2 linear in l" (b2_0 +. (l *. weight)) b2_l ~tol:1e-12

let test_pade_classification () =
  let stage = mk_stage ~l:0.0 ~k:500.0 () in
  Alcotest.(check bool)
    "rc stage overdamped" true
    (Pade.classify (Pade.coeffs stage) = Pade.Overdamped);
  let l_crit = Critical_inductance.of_stage stage in
  Alcotest.(check bool)
    "at l_crit critical" true
    (Pade.classify ~tol:1e-6 (Pade.coeffs (Stage.with_l stage l_crit))
    = Pade.Critically_damped);
  Alcotest.(check bool)
    "above l_crit underdamped" true
    (Pade.classify (Pade.coeffs (Stage.with_l stage (3.0 *. l_crit)))
    = Pade.Underdamped)

let test_pade_zeta_omega () =
  let cs = { Pade.b1 = 2e-10; b2 = 1e-20 } in
  check_close "omega_n" 1e10 (Pade.omega_n cs);
  check_close "zeta" 1.0 (Pade.zeta cs)

let prop_pade_partials_match_fd =
  QCheck2.Test.make ~name:"analytic db/dh,db/dk match finite differences"
    ~count:150 stage_gen (fun stage ->
      let p = Pade.partials stage in
      let b1_of h k =
        (Pade.coeffs (Stage.with_k (Stage.with_h stage h) k)).Pade.b1
      in
      let b2_of h k =
        (Pade.coeffs (Stage.with_k (Stage.with_h stage h) k)).Pade.b2
      in
      let h = stage.Stage.h and k = stage.Stage.k in
      let fd f x0 dx = (f (x0 +. dx) -. f (x0 -. dx)) /. (2.0 *. dx) in
      let ok got expect =
        Float.abs (got -. expect) <= 1e-5 *. (Float.abs expect +. 1e-30)
      in
      ok p.Pade.db1_dh (fd (fun h' -> b1_of h' k) h (h *. 1e-6))
      && ok p.Pade.db1_dk (fd (fun k' -> b1_of h k') k (k *. 1e-6))
      && ok p.Pade.db2_dh (fd (fun h' -> b2_of h' k) h (h *. 1e-6))
      && ok p.Pade.db2_dk (fd (fun k' -> b2_of h k') k (k *. 1e-6)))

let prop_pade_second_partials_match_fd =
  QCheck2.Test.make
    ~name:"analytic second derivatives of b1, b2 match finite differences"
    ~count:150 stage_gen (fun stage ->
      let q = Pade.second_partials stage in
      let h = stage.Stage.h and k = stage.Stage.k in
      let at h k = Pade.partials (Stage.with_k (Stage.with_h stage h) k) in
      (* d/dx of the first partial [get], and the scale |get| / x that a
         cancelling sum of its terms is judged against *)
      let fd get x dx at' =
        ( (get (at' (x +. dx)) -. get (at' (x -. dx))) /. (2.0 *. dx),
          Float.abs (get (at' x)) /. x )
      in
      let along_h get = fd get h (h *. 1e-6) (fun h' -> at h' k)
      and along_k get = fd get k (k *. 1e-6) (fun k' -> at h k') in
      let ok got (expect, scale) =
        Float.abs (got -. expect)
        <= (1e-5 *. Float.abs expect) +. (1e-7 *. scale)
      in
      ok q.Pade.d2b1_dh2 (along_h (fun p -> p.Pade.db1_dh))
      && ok q.Pade.d2b1_dhdk (along_k (fun p -> p.Pade.db1_dh))
      && ok q.Pade.d2b1_dk2 (along_k (fun p -> p.Pade.db1_dk))
      && ok q.Pade.d2b2_dh2 (along_h (fun p -> p.Pade.db2_dh))
      && ok q.Pade.d2b2_dhdk (along_k (fun p -> p.Pade.db2_dh))
      && ok q.Pade.d2b2_dk2 (along_k (fun p -> p.Pade.db2_dk)))

(* ---------------- Poles ---------------- *)

let test_poles_satisfy_characteristic () =
  let cs = Pade.coeffs (mk_stage ()) in
  let { Poles.s1; s2 } = Poles.of_coeffs cs in
  let residual s =
    let open Rlc_numerics.Cx in
    of_float 1.0 +: scale cs.Pade.b1 s +: scale cs.Pade.b2 (s *: s)
  in
  Alcotest.(check bool)
    "1 + b1 s1 + b2 s1^2 = 0" true
    (Rlc_numerics.Cx.norm (residual s1) < 1e-9);
  Alcotest.(check bool)
    "1 + b1 s2 + b2 s2^2 = 0" true
    (Rlc_numerics.Cx.norm (residual s2) < 1e-9)

let test_poles_conjugate_when_underdamped () =
  let stage = mk_stage ~l:3e-6 () in
  let cs = Pade.coeffs stage in
  Alcotest.(check bool) "underdamped" true (Pade.classify cs = Pade.Underdamped);
  let { Poles.s1; s2 } = Poles.of_coeffs cs in
  Alcotest.(check bool)
    "conjugate pair" true
    (Rlc_numerics.Cx.close s1 (Rlc_numerics.Cx.conj s2))

let test_poles_stable () =
  Alcotest.(check bool) "stable" true
    (Poles.is_stable (Poles.of_stage (mk_stage ())))

let prop_pole_sensitivities_match_fd =
  QCheck2.Test.make ~name:"pole sensitivities match finite differences"
    ~count:100 stage_gen (fun stage ->
      (* skip stages too close to critical damping where the analytic
         expression is legitimately singular *)
      let cs = Pade.coeffs stage in
      let disc = Pade.discriminant cs in
      if Float.abs disc < 1e-3 *. cs.Pade.b1 *. cs.Pade.b1 then true
      else begin
        let sens = Poles.sensitivities stage in
        let poles_of h k = Poles.of_stage (Stage.with_k (Stage.with_h stage h) k) in
        let h = stage.Stage.h and k = stage.Stage.k in
        let dh = h *. 1e-7 and dk = k *. 1e-7 in
        let fd_s1_dh =
          Rlc_numerics.Cx.scale (1.0 /. (2.0 *. dh))
            (Rlc_numerics.Cx.( -: ) (poles_of (h +. dh) k).Poles.s1
               (poles_of (h -. dh) k).Poles.s1)
        in
        let fd_s2_dk =
          Rlc_numerics.Cx.scale (1.0 /. (2.0 *. dk))
            (Rlc_numerics.Cx.( -: ) (poles_of h (k +. dk)).Poles.s2
               (poles_of h (k -. dk)).Poles.s2)
        in
        let ok a b =
          Rlc_numerics.Cx.norm (Rlc_numerics.Cx.( -: ) a b)
          <= 1e-3 *. (Rlc_numerics.Cx.norm b +. 1.0)
        in
        ok sens.Poles.ds1_dh fd_s1_dh && ok sens.Poles.ds2_dk fd_s2_dk
      end)

(* ---------------- Step response ---------------- *)

let test_step_response_boundary () =
  let cs = Pade.coeffs (mk_stage ()) in
  check_close "v(0) = 0" 0.0 (Step_response.eval cs 0.0);
  (* settles to 1 after many time constants *)
  check_close "v(inf) = 1" 1.0 (Step_response.eval cs (50.0 *. cs.Pade.b1))
    ~tol:1e-6;
  Alcotest.check_raises "negative time"
    (Invalid_argument "Step_response.eval: t < 0") (fun () ->
      ignore (Step_response.eval cs (-1.0)))

let test_step_response_overdamped_monotone () =
  let cs = Pade.coeffs (mk_stage ~l:0.0 ~k:500.0 ()) in
  let w = Step_response.waveform cs ~t_end:(6.0 *. cs.Pade.b1) ~n:500 in
  let values = Rlc_waveform.Waveform.values w in
  let monotone = ref true in
  Array.iteri
    (fun i v -> if i > 0 && v < values.(i - 1) -. 1e-12 then monotone := false)
    values;
  Alcotest.(check bool) "monotone rise" true !monotone

let test_step_response_overshoot_formula () =
  let cs = Pade.coeffs (mk_stage ~l:3e-6 ()) in
  let predicted = Step_response.overshoot cs in
  let w = Step_response.waveform cs ~t_end:(8.0 *. cs.Pade.b1) ~n:8000 in
  let peak = Rlc_numerics.Stats.max (Rlc_waveform.Waveform.values w) in
  check_close "overshoot matches sampled peak" (1.0 +. predicted) peak
    ~tol:1e-4

let test_step_response_peak_time () =
  let cs = Pade.coeffs (mk_stage ~l:3e-6 ()) in
  match Step_response.peak_time cs with
  | None -> Alcotest.fail "underdamped must have a peak"
  | Some tp ->
      (* derivative vanishes at the peak *)
      check_close "dv/dt(tp) = 0" 0.0
        (Step_response.derivative cs tp *. cs.Pade.b1)
        ~tol:1e-6

let test_step_response_near_critical_continuity () =
  let stage = mk_stage ~l:0.0 ~k:500.0 () in
  let l_crit = Critical_inductance.of_stage stage in
  let t = 2.0 *. (Pade.coeffs stage).Pade.b1 in
  let below = Step_response.eval (Pade.coeffs (Stage.with_l stage (l_crit *. 0.9999))) t in
  let above = Step_response.eval (Pade.coeffs (Stage.with_l stage (l_crit *. 1.0001))) t in
  check_close "continuous through critical damping" below above ~tol:1e-4

let test_step_response_derivative_vs_fd () =
  let cs = Pade.coeffs (mk_stage ()) in
  let t = 1.5 *. cs.Pade.b1 in
  let dt = cs.Pade.b1 *. 1e-6 in
  let fd = (Step_response.eval cs (t +. dt) -. Step_response.eval cs (t -. dt)) /. (2.0 *. dt) in
  check_close "derivative" fd (Step_response.derivative cs t) ~tol:1e-5

(* b1 = 1 and b2 = 1/(4 zeta^2) keep every partial O(1); the zeta list
   straddles critical damping, where the closed form has no branch, and
   ends with strongly overdamped pairs (b2 = 1e-4, 1e-6, 1e-8), where
   cosh(wt) alone would overflow *)
let test_step_response_partials_vs_fd () =
  List.iter
    (fun zeta ->
      let b2 = 1.0 /. (4.0 *. zeta *. zeta) in
      List.iter
        (fun t ->
          let p b1 b2 t = Step_response.partials { Pade.b1; b2 } t in
          let c = p 1.0 b2 t in
          let fd get x dx at =
            (get (at (x +. dx)) -. get (at (x -. dx))) /. (2.0 *. dx)
          in
          let d_t get = fd get t (1e-5 *. t) (fun t' -> p 1.0 b2 t')
          and d_b1 get = fd get 1.0 1e-5 (fun b1' -> p b1' b2 t)
          (* v varies on the scale of b2 near critical damping but on
             that of b1^2 = 1 when strongly overdamped, where a step of
             1e-5 b2 would drown in rounding: step by 1e-5 sqrt(b2) *)
          and d_b2 get =
            fd get b2 (1e-5 *. Float.sqrt b2) (fun b2' -> p 1.0 b2' t)
          in
          let check name expect got =
            let msg = Printf.sprintf "%s at zeta=%.12g t=%g" name zeta t in
            if not (Float.is_finite got) then Alcotest.failf "%s: %g" msg got;
            check_close msg expect got ~tol:1e-6
          in
          let open Step_response in
          check "v_t" (d_t (fun q -> q.v)) c.v_t;
          check "v_tt" (d_t (fun q -> q.v_t)) c.v_tt;
          check "v_b1" (d_b1 (fun q -> q.v)) c.v_b1;
          check "v_b2" (d_b2 (fun q -> q.v)) c.v_b2;
          check "v_tb1 = v_b2" (d_t (fun q -> q.v_b1)) c.v_b2;
          check "v_tb2" (d_t (fun q -> q.v_b2)) c.v_tb2;
          check "v_b1b1" (d_b1 (fun q -> q.v_b1)) c.v_b1b1;
          check "v_b1b2" (d_b2 (fun q -> q.v_b1)) c.v_b1b2;
          check "v_b2b2" (d_b2 (fun q -> q.v_b2)) c.v_b2b2;
          check "v = eval" (eval { Pade.b1 = 1.0; b2 } t) c.v)
        [ 0.05; 0.5; 1.0; 2.0; 4.0; 8.0 ])
    [ 0.2; 0.7; 1.0 -. 1e-9; 1.0; 1.0 +. 1e-9; 1.3; 3.0; 50.0; 500.0; 5000.0 ]

let prop_step_response_bounded =
  QCheck2.Test.make ~name:"step response stays within [0, 2]" ~count:100
    stage_gen (fun stage ->
      let cs = Pade.coeffs stage in
      let ok = ref true in
      for i = 1 to 50 do
        let t = float_of_int i *. 0.2 *. cs.Pade.b1 in
        let v = Step_response.eval cs t in
        if v < -1e-9 || v > 2.0 then ok := false
      done;
      !ok)

(* ---------------- Delay ---------------- *)

let test_delay_satisfies_equation () =
  List.iter
    (fun f ->
      let cs = Pade.coeffs (mk_stage ()) in
      let tau = Delay.of_coeffs ~f cs in
      check_close
        (Printf.sprintf "v(tau) = %g" f)
        f
        (Step_response.eval cs tau) ~tol:1e-9)
    [ 0.1; 0.5; 0.9 ]

let test_delay_monotone_in_f () =
  let cs = Pade.coeffs (mk_stage ()) in
  let d10 = Delay.of_coeffs ~f:0.1 cs in
  let d50 = Delay.of_coeffs ~f:0.5 cs in
  let d90 = Delay.of_coeffs ~f:0.9 cs in
  Alcotest.(check bool) "10 < 50 < 90" true (d10 < d50 && d50 < d90)

(* b1 = 1 with disc/b1^2 just inside and outside 1e-7 on either side of
   critical damping: tau follows its linear trend in disc with no jump,
   and v(tau) = f to rounding *)
let test_delay_continuous_at_critical () =
  let f = 0.5 in
  let pts =
    List.map
      (fun d ->
        let cs = { Pade.b1 = 1.0; b2 = (1.0 -. d) /. 4.0 } in
        let tau = Delay.of_coeffs ~f cs in
        check_close ~tol:1e-14
          (Printf.sprintf "v(tau) at disc = %g" d)
          f (Step_response.partials cs tau).Step_response.v;
        (d, tau))
      [ -1.01e-7; -0.99e-7; 0.99e-7; 1.01e-7 ]
  in
  let d0, t0 = List.hd pts and d3, t3 = List.nth pts 3 in
  let slope = (t3 -. t0) /. (d3 -. d0) in
  let rec steps = function
    | (da, ta) :: ((db, tb) :: _ as rest) ->
        let jump = Float.abs (tb -. ta -. (slope *. (db -. da))) /. ta in
        if jump >= 1e-12 then
          Alcotest.failf "tau jumps by %.3g relative from disc = %g to %g"
            jump da db;
        steps rest
    | _ -> ()
  in
  steps pts

let test_delay_first_crossing_when_ringing () =
  (* strongly underdamped: many crossings of 0.5; solver must return
     the first one, which is before the first peak *)
  let cs = Pade.coeffs (mk_stage ~l:4e-6 ~k:150.0 ()) in
  let tau = Delay.of_coeffs cs in
  (match Step_response.peak_time cs with
  | Some tp -> Alcotest.(check bool) "before first peak" true (tau < tp)
  | None -> Alcotest.fail "expected underdamped");
  check_close "crossing value" 0.5 (Step_response.eval cs tau) ~tol:1e-9

let test_delay_rc_limit_50pct () =
  (* single dominant pole limit: a short segment and a small repeater
     make the driver's intrinsic RC dominate (note b2's R_S C_P C_L r h
     term grows with k, so LARGE k does not give this limit);
     tau50 ~ ln 2 * b1 when b2 << b1^2 *)
  let stage = mk_stage ~l:0.0 ~h:0.0005 ~k:50.0 () in
  let cs = Pade.coeffs stage in
  Alcotest.(check bool) "strongly overdamped" true
    (Pade.discriminant cs > 0.9 *. cs.Pade.b1 *. cs.Pade.b1);
  let tau = Delay.of_coeffs cs in
  check_close "close to ln2 b1" (Float.log 2.0 *. cs.Pade.b1) tau ~tol:0.15

let test_delay_validation () =
  let cs = Pade.coeffs (mk_stage ()) in
  Alcotest.check_raises "f out of range"
    (Invalid_argument "Delay.of_coeffs: f outside (0,1)") (fun () ->
      ignore (Delay.of_coeffs ~f:1.0 cs))

let test_delay_elmore_agreement_rises_with_l () =
  let stage = Rc_opt.stage node100 ~l:0.0 in
  let low = Delay.elmore_agreement (Stage.with_l stage 0.5e-6) in
  let high = Delay.elmore_agreement (Stage.with_l stage 4e-6) in
  Alcotest.(check bool) "agreement degrades with l" true (high > low);
  Alcotest.(check bool) "l=0 agreement is exact" true
    (Float.abs (Delay.elmore_agreement (Stage.with_l stage 0.0) -. 1.0) < 1e-9)

(* The seeded solve against the cold one, on stages that ring so hard
   that v falls back below f after its first peak (later crossings
   exist) and from seeds up to 3x off, on either side, or at the second
   crossing itself. *)
let test_delay_near_seed () =
  List.iter
    (fun (zeta, f, rings) ->
      let cs = { Pade.b1 = 2.0 *. zeta *. 1e-10; b2 = 1e-20 } in
      Alcotest.(check bool)
        (Printf.sprintf "zeta=%g f=%g falls back below f" zeta f)
        rings
        (1.0 -. Step_response.undershoot_depth cs < f);
      let tau = Delay.of_coeffs ~f cs in
      let seeds =
        List.map (fun m -> m *. tau) [ 1.0 /. 3.0; 0.8; 1.0; 1.2; 3.0 ]
      in
      let seeds =
        match Step_response.peak_time cs with
        | Some tp when rings ->
            (* v dips below f again before its first trough at 2 tp *)
            let second =
              Rlc_numerics.Roots.brent
                (fun t -> Step_response.eval cs t -. f)
                tp (2.0 *. tp)
            in
            second :: (1.1 *. tp) :: seeds
        | _ -> seeds
      in
      List.iter
        (fun seed ->
          check_close
            (Printf.sprintf "zeta=%g f=%g seed=%.3g tau" zeta f (seed /. tau))
            1.0
            (Delay.of_coeffs_near ~f cs ~seed /. tau)
            ~tol:1e-12)
        seeds)
    [
      (0.05, 0.5, true);
      (0.1, 0.5, true);
      (0.3, 0.9, true);
      (0.3, 0.5, false);
      (1.0, 0.5, false);
      (2.0, 0.1, false);
    ]

let prop_delay_solves_equation =
  QCheck2.Test.make ~name:"delay satisfies v(tau) = f for random stages"
    ~count:150 stage_gen (fun stage ->
      let cs = Pade.coeffs stage in
      let tau = Delay.of_coeffs ~f:0.5 cs in
      tau > 0.0 && Float.abs (Step_response.eval cs tau -. 0.5) < 1e-8)

(* ---------------- Critical inductance ---------------- *)

let test_lcrit_discriminant_zero () =
  let stage = mk_stage ~l:0.0 () in
  let l_crit = Critical_inductance.of_stage stage in
  let cs = Pade.coeffs (Stage.with_l stage l_crit) in
  Alcotest.(check bool)
    "discriminant ~ 0" true
    (Float.abs (Pade.discriminant cs) < 1e-9 *. cs.Pade.b1 *. cs.Pade.b1)

let test_lcrit_independent_of_stage_l () =
  let stage = mk_stage ~l:0.0 () in
  check_close "independent of l"
    (Critical_inductance.of_stage stage)
    (Critical_inductance.of_stage (Stage.with_l stage 3e-6))

let test_lcrit_margin_sign () =
  let stage = mk_stage ~l:0.0 ~k:500.0 () in
  let l_crit = Critical_inductance.of_stage stage in
  Alcotest.(check bool)
    "below critical: negative margin" true
    (Critical_inductance.damping_margin (Stage.with_l stage (0.5 *. l_crit))
    < 0.0);
  Alcotest.(check bool)
    "above critical: positive margin" true
    (Critical_inductance.damping_margin (Stage.with_l stage (2.0 *. l_crit))
    > 0.0)

let test_lcrit_smaller_at_100nm () =
  (* Figure 4's technology ordering at the respective RC optima *)
  let lc node =
    let rc = Rc_opt.optimize node in
    Critical_inductance.of_node node ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt
  in
  Alcotest.(check bool) "100nm < 250nm" true (lc node100 < lc node250)

(* ---------------- Elmore / Rc_opt ---------------- *)

let test_elmore_total_delay () =
  let stage = mk_stage () in
  check_close "total = L/h * stage"
    (0.05 /. stage.Stage.h *. Elmore.stage_delay stage)
    (Elmore.total_delay stage ~line_length:0.05)

let test_rc_opt_table1 () =
  let r250 = Rc_opt.optimize node250 in
  check_close "h 250" Rlc_tech.Presets.Expected.h_opt_rc_250nm
    r250.Rc_opt.h_opt ~tol:2e-3;
  check_close "k 250" Rlc_tech.Presets.Expected.k_opt_rc_250nm
    r250.Rc_opt.k_opt ~tol:2e-3;
  check_close "tau 250" Rlc_tech.Presets.Expected.tau_opt_rc_250nm
    r250.Rc_opt.tau_opt ~tol:2e-3;
  let r100 = Rc_opt.optimize node100 in
  check_close "h 100" Rlc_tech.Presets.Expected.h_opt_rc_100nm
    r100.Rc_opt.h_opt ~tol:2e-3;
  check_close "k 100" Rlc_tech.Presets.Expected.k_opt_rc_100nm
    r100.Rc_opt.k_opt ~tol:2e-3;
  check_close "tau 100" Rlc_tech.Presets.Expected.tau_opt_rc_100nm
    r100.Rc_opt.tau_opt ~tol:2e-3

let test_rc_opt_is_elmore_minimum () =
  let rc = Rc_opt.optimize node100 in
  let dpl h k =
    Elmore.per_unit_length (Stage.of_node node100 ~l:0.0 ~h ~k)
  in
  let best = dpl rc.Rc_opt.h_opt rc.Rc_opt.k_opt in
  List.iter
    (fun (dh, dk) ->
      Alcotest.(check bool) "perturbed is worse" true
        (dpl (rc.Rc_opt.h_opt *. dh) (rc.Rc_opt.k_opt *. dk) > best))
    [ (1.1, 1.0); (0.9, 1.0); (1.0, 1.1); (1.0, 0.9); (1.05, 0.95) ]

let test_rc_opt_tau_is_elmore_at_optimum () =
  let rc = Rc_opt.optimize node250 in
  let stage =
    Stage.of_node node250 ~l:0.0 ~h:rc.Rc_opt.h_opt ~k:rc.Rc_opt.k_opt
  in
  check_rel "tau_opt = Elmore(h*,k*)" rc.Rc_opt.tau_opt
    (Elmore.stage_delay stage)

let test_derive_driver_roundtrip () =
  List.iter
    (fun node ->
      let rc = Rc_opt.optimize node in
      let d =
        Rc_opt.derive_driver ~r:node.Rlc_tech.Node.r ~c:node.Rlc_tech.Node.c
          ~h_opt:rc.Rc_opt.h_opt ~k_opt:rc.Rc_opt.k_opt
          ~tau_opt:rc.Rc_opt.tau_opt
      in
      let d0 = node.Rlc_tech.Node.driver in
      check_close "rs" d0.Rlc_tech.Driver.rs d.Rlc_tech.Driver.rs ~tol:1e-9;
      check_close "c0" d0.Rlc_tech.Driver.c0 d.Rlc_tech.Driver.c0 ~tol:1e-9;
      check_close "cp" d0.Rlc_tech.Driver.cp d.Rlc_tech.Driver.cp ~tol:1e-9)
    [ node250; node100 ]

let test_derive_driver_rejects_inconsistent () =
  Alcotest.check_raises "inconsistent tau"
    (Invalid_argument "Rc_opt.derive_driver: inconsistent tau_opt") (fun () ->
      ignore
        (Rc_opt.derive_driver ~r:4400.0 ~c:200e-12 ~h_opt:0.014 ~k_opt:500.0
           ~tau_opt:1e-15))

(* ---------------- Rlc_opt ---------------- *)

let test_rlc_opt_newton_matches_nm () =
  List.iter
    (fun (node, near_critical) ->
      List.iter
        (fun l ->
          match Rlc_opt.optimize_newton_only node ~l with
          | None -> Alcotest.failf "newton failed at l=%g" l
          | Some nw ->
              let nm = Rlc_opt.optimize_nm_only node ~l in
              check_close
                (Printf.sprintf "h agree at l=%g" l)
                nm.Rlc_opt.h nw.Rlc_opt.h ~tol:1e-4;
              check_close
                (Printf.sprintf "k agree at l=%g" l)
                nm.Rlc_opt.k nw.Rlc_opt.k ~tol:1e-4;
              check_close
                (Printf.sprintf "objective agree at l=%g" l)
                nm.Rlc_opt.delay_per_length nw.Rlc_opt.delay_per_length
                ~tol:1e-7)
        ([ 0.0; 1e-6; 2.5e-6; 5e-6 ] @ near_critical))
    (* plus points where Newton's iterates cross critical damping, the
       bands where it once stalled *)
    [ (node250, [ 1.4e-7; 1.7e-7 ]); (node100, [ 5e-8; 2.34e-6 ]) ]

(* Run [f] with journaling (and therefore metrics recording) on,
   restoring both switches afterwards. *)
let with_journal f =
  let was = Rlc_instr.Control.enabled () in
  Rlc_instr.Journal.start ();
  Fun.protect
    ~finally:(fun () ->
      Rlc_instr.Journal.stop ();
      Rlc_instr.Control.set_enabled was)
    f

let fallback_events () =
  List.filter
    (fun e -> e.Rlc_instr.Journal.name = "rlc_opt.fallback")
    (Rlc_instr.Journal.events ())

let test_rlc_opt_no_fallback_on_sweep () =
  let fallbacks = Rlc_instr.Metrics.counter "rlc_opt.fallbacks" in
  let nm_iterations = Rlc_instr.Metrics.counter "nelder_mead.iterations" in
  with_journal (fun () ->
      let fb0 = Rlc_instr.Metrics.value fallbacks
      and nm0 = Rlc_instr.Metrics.value nm_iterations in
      List.iter
        (fun node ->
          List.iter
            (fun (l, r) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s l=%g from Newton" node.Rlc_tech.Node.name l)
                true
                (r.Rlc_opt.method_ = Rlc_opt.Newton_g
                && r.Rlc_opt.newton_converged))
            (Rlc_opt.sweep ~n:41 node ~l_max:node.Rlc_tech.Node.l_max))
        [ node250; node100 ];
      check_close "no fallback counted" 0.0
        (Rlc_instr.Metrics.value fallbacks -. fb0);
      check_close "Nelder-Mead never iterates" 0.0
        (Rlc_instr.Metrics.value nm_iterations -. nm0);
      Alcotest.(check int) "no fallback journaled" 0
        (List.length (fallback_events ())))

let test_rlc_opt_second_order_check () =
  let l = 2e-6 in
  let opt = Rlc_opt.optimize node100 ~l in
  let h = opt.Rlc_opt.h and k = opt.Rlc_opt.k in
  Alcotest.(check bool) "optimum passes" true
    (Rlc_opt.is_minimum node100 ~l ~h ~k);
  Alcotest.(check bool) "k 5% off rejected" false
    (Rlc_opt.is_minimum node100 ~l ~h ~k:(1.05 *. k));
  Alcotest.(check bool) "h 5% off rejected" false
    (Rlc_opt.is_minimum node100 ~l ~h:(0.95 *. h) ~k);
  (* At f = 1e-9 the residuals are so small that Newton meets its
     absolute tolerance at a point that is not stationary: the check
     must reject it and [optimize] fall back, explaining why. *)
  let f = 1e-9 and l = 0.0 in
  match Rlc_opt.optimize_newton_only ~f node100 ~l with
  | None -> Alcotest.fail "expected Newton to converge at f = 1e-9"
  | Some nw ->
      Alcotest.(check bool) "Newton point rejected" false
        (Rlc_opt.is_minimum ~f node100 ~l ~h:nw.Rlc_opt.h ~k:nw.Rlc_opt.k);
      with_journal (fun () ->
          let r = Rlc_opt.optimize ~f node100 ~l in
          Alcotest.(check bool) "fell back to Nelder-Mead" true
            (r.Rlc_opt.method_ = Rlc_opt.Nelder_mead);
          Alcotest.(check bool) "fallback beats the Newton point" true
            (r.Rlc_opt.delay_per_length < nw.Rlc_opt.delay_per_length);
          match fallback_events () with
          | [ e ] ->
              Alcotest.(check (option string)) "reason" (Some "not_minimum")
                (Rlc_instr.Journal.str_field e "reason");
              Alcotest.(check (option string)) "node" (Some "100nm")
                (Rlc_instr.Journal.str_field e "node");
              Alcotest.(check (option (float 0.0))) "l" (Some l)
                (Rlc_instr.Journal.num_field e "l")
          | es -> Alcotest.failf "%d fallback events" (List.length es))

let test_rlc_opt_residuals_zero_at_optimum () =
  let l = 1.5e-6 in
  let opt = Rlc_opt.optimize node100 ~l in
  let g1, g2 =
    Rlc_opt.residuals (Stage.of_node node100 ~l ~h:opt.Rlc_opt.h ~k:opt.Rlc_opt.k)
  in
  Alcotest.(check bool) "g1 ~ 0" true (Float.abs g1 < 1e-5);
  Alcotest.(check bool) "g2 ~ 0" true (Float.abs g2 < 1e-5)

let test_rlc_opt_residuals_nonzero_off_optimum () =
  let l = 1.5e-6 in
  let g1, g2 = Rlc_opt.residuals (Stage.of_node node100 ~l ~h:0.006 ~k:800.0) in
  Alcotest.(check bool) "residuals detect non-optimality" true
    (Float.abs g1 > 1e-3 || Float.abs g2 > 1e-3)

let test_rlc_opt_is_minimum () =
  let l = 2e-6 in
  let opt = Rlc_opt.optimize node100 ~l in
  let best = opt.Rlc_opt.delay_per_length in
  List.iter
    (fun (dh, dk) ->
      let v =
        Rlc_opt.objective node100 ~l ~h:(opt.Rlc_opt.h *. dh)
          ~k:(opt.Rlc_opt.k *. dk)
      in
      Alcotest.(check bool)
        (Printf.sprintf "perturbation (%g, %g) worse" dh dk)
        true (v >= best -. 1e-15))
    [ (1.05, 1.0); (0.95, 1.0); (1.0, 1.05); (1.0, 0.95); (1.03, 0.97) ]

let test_rlc_opt_paper_shapes () =
  (* Figures 5/6/7 qualitative content *)
  let rc = Rc_opt.optimize node100 in
  let at l = Rlc_opt.optimize node100 ~l in
  let o0 = at 0.0 and o2 = at 2e-6 and o5 = at 5e-6 in
  Alcotest.(check bool) "h(l=0) slightly below h_RC" true
    (o0.Rlc_opt.h < rc.Rc_opt.h_opt && o0.Rlc_opt.h > 0.85 *. rc.Rc_opt.h_opt);
  Alcotest.(check bool) "h increases with l" true
    (o0.Rlc_opt.h < o2.Rlc_opt.h && o2.Rlc_opt.h < o5.Rlc_opt.h);
  Alcotest.(check bool) "k decreases with l" true
    (o0.Rlc_opt.k > o2.Rlc_opt.k && o2.Rlc_opt.k > o5.Rlc_opt.k);
  Alcotest.(check bool) "delay/length increases with l" true
    (o0.Rlc_opt.delay_per_length < o2.Rlc_opt.delay_per_length
    && o2.Rlc_opt.delay_per_length < o5.Rlc_opt.delay_per_length)

let test_rlc_opt_scaling_susceptibility () =
  (* Figure 7's headline: the 100nm blow-up exceeds the 250nm one *)
  let blowup node =
    let at l = (Rlc_opt.optimize node ~l).Rlc_opt.delay_per_length in
    at 5e-6 /. at 0.0
  in
  let b250 = blowup node250 and b100 = blowup node100 in
  Alcotest.(check bool) "250nm blow-up ~ 2x" true (b250 > 1.7 && b250 < 2.4);
  Alcotest.(check bool) "100nm blow-up ~ 3x+" true (b100 > 2.6 && b100 < 3.8);
  Alcotest.(check bool) "scaling hurts" true (b100 > b250)

let test_rlc_opt_newton_iteration_budget () =
  (* the paper claims < 6 Newton iterations; allow a little slack *)
  List.iter
    (fun l ->
      match Rlc_opt.optimize_newton_only node100 ~l with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "few iterations at l=%g" l)
            true
            (r.Rlc_opt.newton_iterations <= 10)
      | None -> Alcotest.failf "newton failed at l=%g" l)
    [ 0.0; 0.5e-6; 1e-6; 2e-6; 3e-6; 4e-6; 5e-6 ]

let test_rlc_opt_sweep () =
  let sweep = Rlc_opt.sweep ~n:5 node100 ~l_max:4e-6 in
  Alcotest.(check int) "5 points" 5 (List.length sweep);
  check_close "first l" 0.0 (fst (List.nth sweep 0));
  check_close "last l" 4e-6 (fst (List.nth sweep 4))

(* Equations (7)-(8) as the paper writes them, in complex arithmetic
   over the pole sensitivities, divided by (s2 - s1) and scaled by h
   and k: the oracle for the real form [Rlc_opt.residuals] computes. *)
let paper_residuals ~f stage =
  let cs = Pade.coeffs stage in
  let { Poles.s1; s2 } = Poles.of_coeffs cs in
  let sens = Poles.sensitivities stage in
  let tau = Delay.of_coeffs ~f cs in
  let h = stage.Stage.h in
  let open Rlc_numerics.Cx in
  let e1 = exp (scale tau s1) and e2 = exp (scale tau s2) in
  let g ds1 ds2 c1 c2 =
    (of_float (1.0 -. f) *: (ds2 -: ds1))
    -: (ds2 *: e1) +: (ds1 *: e2)
    -: (scale tau s2 *: (ds1 +: c1) *: e1)
    +: (scale tau s1 *: (ds2 +: c2) *: e2)
  in
  let g1 =
    g sens.Poles.ds1_dh sens.Poles.ds2_dh (scale (1.0 /. h) s1)
      (scale (1.0 /. h) s2)
  and g2 = g sens.Poles.ds1_dk sens.Poles.ds2_dk zero zero in
  let d = s2 -: s1 in
  (re (g1 /: d) *. h, re (g2 /: d) *. stage.Stage.k)

let prop_rlc_opt_residuals_are_paper_equations =
  QCheck2.Test.make ~name:"real residuals equal the paper's (7)-(8)"
    ~count:150
    QCheck2.Gen.(pair stage_gen (oneofl [ 0.1; 0.5; 0.9 ]))
    (fun (stage, f) ->
      let cs = Pade.coeffs stage in
      (* the complex form is singular at critical damping *)
      Float.abs (Pade.discriminant cs) < 1e-3 *. cs.Pade.b1 *. cs.Pade.b1
      ||
      let g1, g2 = Rlc_opt.residuals ~f stage
      and p1, p2 = paper_residuals ~f stage in
      Float.abs (g1 -. p1) <= 1e-8 *. (1.0 +. Float.abs p1)
      && Float.abs (g2 -. p2) <= 1e-8 *. (1.0 +. Float.abs p2))

(* The analytic Jacobian against central differences of the residuals
   on a grid around each preset's RC optimum, at several inductances
   including the one that makes the stage critically damped. *)
let test_rlc_opt_jacobian_vs_fd () =
  List.iter
    (fun node ->
      let rc = Rc_opt.optimize node in
      let l_max = node.Rlc_tech.Node.l_max in
      List.iter
        (fun (hm, km) ->
          let h = hm *. rc.Rc_opt.h_opt and k = km *. rc.Rc_opt.k_opt in
          let l_crit = Critical_inductance.of_node node ~h ~k in
          Alcotest.(check bool) "l_crit in range" true
            (l_crit > 0.0 && l_crit < 2.0 *. l_max);
          let zeta =
            Pade.zeta (Pade.coeffs (Stage.of_node node ~l:l_crit ~h ~k))
          in
          Alcotest.(check bool) "critically damped point" true
            (Float.abs (zeta -. 1.0) < 1e-6);
          List.iter
            (fun l ->
              let residuals x =
                let g1, g2 =
                  Rlc_opt.residuals (Stage.of_node node ~l ~h:x.(0) ~k:x.(1))
                in
                [| g1; g2 |]
              in
              let x = [| h; k |] in
              let fd = Rlc_numerics.Fdiff.jacobian residuals x in
              let j = Rlc_opt.jacobian (Stage.of_node node ~l ~h ~k) in
              (* column j scaled by x_j: d r / d log x, dimensionless *)
              let entry m r c = Rlc_numerics.Matrix.get m r c *. x.(c) in
              let scale = ref 0.0 in
              for r = 0 to 1 do
                for c = 0 to 1 do
                  scale := Float.max !scale (Float.abs (entry j r c))
                done
              done;
              for r = 0 to 1 do
                for c = 0 to 1 do
                  let a = entry j r c and b = entry fd r c in
                  if Float.abs (a -. b) > 1e-6 *. !scale then
                    Alcotest.failf
                      "%s l=%g h=%g k=%g J%d%d: analytic %.10g, fd %.10g"
                      node.Rlc_tech.Node.name l h k (r + 1) (c + 1) a b
                done
              done)
            [ 0.0; 0.5 *. l_max; l_max; l_crit ])
        [ (0.6, 0.5); (1.0, 1.0); (1.5, 0.7); (2.0, 0.35); (0.8, 1.4) ])
    [ node250; node100 ]

(* The analytic second-order check [optimize] applies, against the
   seven-point oracle, at every optimum of the 41-point sweeps and at
   points 5% off them. *)
let test_rlc_opt_analytic_check_vs_oracle () =
  List.iter
    (fun node ->
      List.iter
        (fun (l, r) ->
          List.iter
            (fun (dh, dk) ->
              let h = r.Rlc_opt.h *. dh and k = r.Rlc_opt.k *. dk in
              Alcotest.(check bool)
                (Printf.sprintf "%s l=%g (%g h, %g k)" node.Rlc_tech.Node.name
                   l dh dk)
                (Rlc_opt.is_minimum node ~l ~h ~k)
                (Rlc_opt.is_minimum_analytic node ~l ~h ~k))
            [ (1.0, 1.0); (1.05, 1.0); (0.95, 1.0); (1.0, 1.05); (1.0, 0.95) ])
        (Rlc_opt.sweep ~n:41 node ~l_max:node.Rlc_tech.Node.l_max))
    [ node250; node100 ]

(* ---------------- Baselines ---------------- *)

let test_km_dominant_pole_accuracy () =
  (* strongly overdamped: KM dominant-pole delay within 5% of exact *)
  let cs = Pade.coeffs (mk_stage ~l:0.0 ~h:0.0005 ~k:50.0 ()) in
  Alcotest.(check bool) "applicable" true (Kahng_muddu.is_applicable cs);
  let km = Kahng_muddu.delay cs in
  let exact = Delay.of_coeffs cs in
  check_rel "km vs exact" exact km ~tol:0.05

let test_km_critical_fallback_is_b2_over_b1 () =
  (* inside the fallback band the KM delay is 1.9 b2 / b1.  b1 does
     not depend on l but b2 grows with it, so the fallback is not
     l-blind: across the band its delay moves exactly as b2 does *)
  let stage = Rc_opt.stage node100 ~l:0.0 in
  let l_crit = Critical_inductance.of_stage stage in
  let at f =
    let s = Stage.with_l stage (f *. l_crit) in
    let cs = Pade.coeffs s in
    Alcotest.(check bool) "in the fallback band" true
      (Kahng_muddu.regime cs = Kahng_muddu.Critical_fallback);
    check_rel "tau = 1.9 b2 / b1" (1.9 *. cs.Pade.b2 /. cs.Pade.b1)
      (Kahng_muddu.delay_stage s) ~tol:1e-12;
    (Kahng_muddu.delay_stage s, cs.Pade.b2)
  in
  let d1, b2_lo = at 0.9 and d2, b2_hi = at 1.1 in
  check_rel "d2 / d1 = b2(1.1 l_crit) / b2(0.9 l_crit)" (b2_hi /. b2_lo)
    (d2 /. d1) ~tol:1e-12

let test_km_regimes () =
  let over = Pade.coeffs (mk_stage ~l:0.0 ~h:0.0005 ~k:50.0 ()) in
  Alcotest.(check bool) "dominant pole" true
    (Kahng_muddu.regime over = Kahng_muddu.Dominant_pole);
  (* short segment driven hard on a very inductive line: zeta ~ 0.19 *)
  let under = Pade.coeffs (mk_stage ~l:5e-6 ~h:0.005 ~k:800.0 ()) in
  Alcotest.(check bool) "oscillatory" true
    (Kahng_muddu.regime under = Kahng_muddu.Oscillatory);
  let mid = Pade.coeffs (mk_stage ~l:1e-6 ()) in
  Alcotest.(check bool) "critical fallback" true
    (Kahng_muddu.regime mid = Kahng_muddu.Critical_fallback)

let test_if_delay_accuracy () =
  (* the Ismail-Friedman fit was tuned for their driver model (no C_P);
     on this structure it stays within ~25% of the exact solution --
     the limited validity Section 2.2 of the paper points out *)
  List.iter
    (fun l ->
      let stage = Rc_opt.stage node100 ~l in
      let exact = Delay.of_stage stage in
      let fit = Ismail_friedman.delay_50 stage in
      Alcotest.(check bool)
        (Printf.sprintf "IF fit within 25%% at l=%g" l)
        true
        (Float.abs (fit /. exact -. 1.0) < 0.25))
    [ 0.0; 1e-6; 2e-6 ]

let test_if_repeater_shapes () =
  check_close "t_lr(0) = 0" 0.0 (Ismail_friedman.t_lr node100 ~l:0.0);
  let rc = Rc_opt.optimize node100 in
  check_close "h(0) = h_RC" rc.Rc_opt.h_opt
    (Ismail_friedman.h_opt node100 ~l:0.0);
  check_close "k(0) = k_RC" rc.Rc_opt.k_opt
    (Ismail_friedman.k_opt node100 ~l:0.0);
  Alcotest.(check bool) "h grows" true
    (Ismail_friedman.h_opt node100 ~l:4e-6
    > Ismail_friedman.h_opt node100 ~l:1e-6);
  Alcotest.(check bool) "k shrinks" true
    (Ismail_friedman.k_opt node100 ~l:4e-6
    < Ismail_friedman.k_opt node100 ~l:1e-6)

let test_if_fitted_range () =
  (* notably, the paper's own RC-optimal configuration falls OUTSIDE
     the Ismail-Friedman fitted window (ch/(c0 k) ~ 3.4 > 1) -- one
     more reason their curve fit cannot cover the Table 1 designs *)
  Alcotest.(check bool) "rc stage out of range" true
    (not (Ismail_friedman.in_fitted_range (Rc_opt.stage node100 ~l:1e-6)));
  (* a short segment with an oversized repeater is inside the window *)
  Alcotest.(check bool) "short/oversized stage in range" true
    (Ismail_friedman.in_fitted_range (mk_stage ~h:0.002 ~k:2000.0 ()))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "rlc_core"
    [
      ( "line",
        [
          Alcotest.test_case "z0 lossless" `Quick test_line_z0_lossless;
          Alcotest.test_case "z0 hf limit" `Quick
            test_line_z0_high_frequency_limit;
          Alcotest.test_case "theta*z0 = r+sl" `Quick
            test_line_propagation_consistency;
          Alcotest.test_case "time of flight" `Quick test_line_time_of_flight;
        ] );
      ( "two-port",
        [
          Alcotest.test_case "reciprocity" `Quick test_two_port_reciprocity;
          Alcotest.test_case "cascade identity" `Quick
            test_two_port_cascade_identity;
          Alcotest.test_case "short line limit" `Quick
            test_two_port_short_line_limit;
          Alcotest.test_case "resistive divider" `Quick test_two_port_divider;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "dc gain" `Quick test_transfer_dc;
          Alcotest.test_case "matches equation (1)" `Quick
            test_transfer_direct_agreement;
          Alcotest.test_case "lowpass shape" `Quick test_transfer_lowpass;
          Alcotest.test_case "overflow guard" `Quick
            test_transfer_overflow_guard;
        ] );
      ( "stage",
        [
          Alcotest.test_case "accessors" `Quick test_stage_accessors;
          Alcotest.test_case "with_*" `Quick test_stage_with;
        ] );
      ( "pade",
        [
          Alcotest.test_case "positive coefficients" `Quick test_pade_positive;
          Alcotest.test_case "b1 = Elmore" `Quick test_pade_b1_equals_elmore;
          Alcotest.test_case "b1 independent of l" `Quick
            test_pade_b1_independent_of_l;
          Alcotest.test_case "b2 linear in l" `Quick test_pade_b2_linear_in_l;
          Alcotest.test_case "damping classification" `Quick
            test_pade_classification;
          Alcotest.test_case "zeta / omega_n" `Quick test_pade_zeta_omega;
        ] );
      qsuite "pade-properties"
        [ prop_pade_partials_match_fd; prop_pade_second_partials_match_fd ];
      ( "poles",
        [
          Alcotest.test_case "characteristic equation" `Quick
            test_poles_satisfy_characteristic;
          Alcotest.test_case "conjugate when underdamped" `Quick
            test_poles_conjugate_when_underdamped;
          Alcotest.test_case "stability" `Quick test_poles_stable;
        ] );
      qsuite "poles-properties" [ prop_pole_sensitivities_match_fd ];
      ( "step-response",
        [
          Alcotest.test_case "boundary values" `Quick
            test_step_response_boundary;
          Alcotest.test_case "overdamped monotone" `Quick
            test_step_response_overdamped_monotone;
          Alcotest.test_case "overshoot formula" `Quick
            test_step_response_overshoot_formula;
          Alcotest.test_case "peak time" `Quick test_step_response_peak_time;
          Alcotest.test_case "continuity at critical damping" `Quick
            test_step_response_near_critical_continuity;
          Alcotest.test_case "derivative" `Quick
            test_step_response_derivative_vs_fd;
          Alcotest.test_case "second-order partials" `Quick
            test_step_response_partials_vs_fd;
        ] );
      qsuite "step-response-properties" [ prop_step_response_bounded ];
      ( "delay",
        [
          Alcotest.test_case "satisfies equation (3)" `Quick
            test_delay_satisfies_equation;
          Alcotest.test_case "monotone in f" `Quick test_delay_monotone_in_f;
          Alcotest.test_case "continuous at critical damping" `Quick
            test_delay_continuous_at_critical;
          Alcotest.test_case "first crossing when ringing" `Quick
            test_delay_first_crossing_when_ringing;
          Alcotest.test_case "dominant-pole limit" `Quick
            test_delay_rc_limit_50pct;
          Alcotest.test_case "validation" `Quick test_delay_validation;
          Alcotest.test_case "elmore agreement degrades with l" `Quick
            test_delay_elmore_agreement_rises_with_l;
          Alcotest.test_case "seeded solve = cold solve" `Quick
            test_delay_near_seed;
        ] );
      qsuite "delay-properties" [ prop_delay_solves_equation ];
      ( "critical-inductance",
        [
          Alcotest.test_case "discriminant zero at l_crit" `Quick
            test_lcrit_discriminant_zero;
          Alcotest.test_case "independent of stage l" `Quick
            test_lcrit_independent_of_stage_l;
          Alcotest.test_case "margin sign" `Quick test_lcrit_margin_sign;
          Alcotest.test_case "smaller at 100nm (Fig 4)" `Quick
            test_lcrit_smaller_at_100nm;
        ] );
      ( "elmore-rc-opt",
        [
          Alcotest.test_case "total delay" `Quick test_elmore_total_delay;
          Alcotest.test_case "table 1 optima" `Quick test_rc_opt_table1;
          Alcotest.test_case "is the Elmore minimum" `Quick
            test_rc_opt_is_elmore_minimum;
          Alcotest.test_case "tau_opt consistency" `Quick
            test_rc_opt_tau_is_elmore_at_optimum;
          Alcotest.test_case "derive_driver roundtrip" `Quick
            test_derive_driver_roundtrip;
          Alcotest.test_case "derive_driver validation" `Quick
            test_derive_driver_rejects_inconsistent;
        ] );
      ( "rlc-opt",
        [
          Alcotest.test_case "newton = nelder-mead" `Slow
            test_rlc_opt_newton_matches_nm;
          Alcotest.test_case "no fallback on sweeps" `Quick
            test_rlc_opt_no_fallback_on_sweep;
          Alcotest.test_case "second-order check" `Quick
            test_rlc_opt_second_order_check;
          Alcotest.test_case "residuals vanish at optimum" `Quick
            test_rlc_opt_residuals_zero_at_optimum;
          Alcotest.test_case "residuals nonzero off optimum" `Quick
            test_rlc_opt_residuals_nonzero_off_optimum;
          Alcotest.test_case "perturbations are worse" `Quick
            test_rlc_opt_is_minimum;
          Alcotest.test_case "paper shapes (Figs 5-7)" `Quick
            test_rlc_opt_paper_shapes;
          Alcotest.test_case "scaling susceptibility (Fig 7)" `Slow
            test_rlc_opt_scaling_susceptibility;
          Alcotest.test_case "newton iteration budget" `Quick
            test_rlc_opt_newton_iteration_budget;
          Alcotest.test_case "sweep" `Quick test_rlc_opt_sweep;
          Alcotest.test_case "analytic jacobian = finite differences" `Quick
            test_rlc_opt_jacobian_vs_fd;
          Alcotest.test_case "analytic check = seven-point check" `Quick
            test_rlc_opt_analytic_check_vs_oracle;
        ] );
      qsuite "rlc-opt-properties"
        [ prop_rlc_opt_residuals_are_paper_equations ];
      ( "baselines",
        [
          Alcotest.test_case "KM dominant-pole accuracy" `Quick
            test_km_dominant_pole_accuracy;
          Alcotest.test_case "KM fallback tracks b2" `Quick
            test_km_critical_fallback_is_b2_over_b1;
          Alcotest.test_case "KM regimes" `Quick test_km_regimes;
          Alcotest.test_case "IF delay accuracy" `Quick test_if_delay_accuracy;
          Alcotest.test_case "IF repeater shapes" `Quick
            test_if_repeater_shapes;
          Alcotest.test_case "IF fitted range" `Quick test_if_fitted_range;
        ] );
    ]
