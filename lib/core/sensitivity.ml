type t = {
  wrt_l : float;
  wrt_c : float;
  wrt_r : float;
  wrt_rs : float;
  elasticity_l : float;
  elasticity_c : float;
  elasticity_r : float;
}

(* Implicit-function-theorem derivative: tau solves v(tau; theta) = f,
   so d tau/d theta = -(dv/d theta)|_tau / (dv/dt)|_tau.  dv/dt is the
   closed-form step-response derivative; dv/dtheta is a high-accuracy
   central difference of the closed-form response (no re-solving of the
   delay equation, no transient simulation), except for l: b1 does not
   depend on it and b2 is linear in it, so dv/dl = dv/db2 db2/dl with a
   one-sided db2/dl that is exact up to rounding and needs no l < 0. *)
let of_stage ?(f = 0.5) stage =
  let tau = Delay.of_stage ~f stage in
  let cs = Pade.coeffs stage in
  let slope = Step_response.derivative cs tau in
  if Float.abs slope < 1e-300 then
    invalid_arg "Sensitivity.of_stage: flat response at the crossing";
  let v_of st = Step_response.eval (Pade.coeffs st) tau in
  let dv_d perturb scale =
    let h = 1e-6 *. scale in
    (v_of (perturb (+.h)) -. v_of (perturb (-.h))) /. (2.0 *. h)
  in
  let { Line.r; l; c } = stage.Stage.line in
  let line ?(dr = 0.0) ?(dl = 0.0) ?(dc = 0.0) () =
    Line.make ~r:(r +. dr) ~l:(l +. dl) ~c:(c +. dc)
  in
  let rebuild line' driver' =
    Stage.make ~line:line' ~driver:driver' ~h:stage.Stage.h ~k:stage.Stage.k
  in
  let driver = stage.Stage.driver in
  let wrt_l =
    let dl = Float.max l (0.01 *. 1e-6) in
    let b2' = (Pade.coeffs (rebuild (line ~dl ()) driver)).Pade.b2 in
    let v_b2 = (Step_response.partials cs tau).Step_response.v_b2 in
    -.(v_b2 *. ((b2' -. cs.Pade.b2) /. dl)) /. slope
  in
  let wrt_c = -.dv_d (fun d -> rebuild (line ~dc:d ()) driver) c /. slope in
  let wrt_r = -.dv_d (fun d -> rebuild (line ~dr:d ()) driver) r /. slope in
  let wrt_rs =
    let perturb d =
      rebuild (line ())
        (Rlc_tech.Driver.make
           ~rs:(driver.Rlc_tech.Driver.rs +. d)
           ~c0:driver.Rlc_tech.Driver.c0 ~cp:driver.Rlc_tech.Driver.cp)
    in
    -.dv_d perturb driver.Rlc_tech.Driver.rs /. slope
  in
  {
    wrt_l;
    wrt_c;
    wrt_r;
    wrt_rs;
    elasticity_l = l /. tau *. wrt_l;
    elasticity_c = c /. tau *. wrt_c;
    elasticity_r = r /. tau *. wrt_r;
  }

let delay_spread_estimate ?f stage ~l_uncertainty =
  if l_uncertainty < 0.0 then
    invalid_arg "Sensitivity.delay_spread_estimate: negative uncertainty";
  let s = of_stage ?f stage in
  Float.abs s.wrt_l *. 2.0 *. l_uncertainty
