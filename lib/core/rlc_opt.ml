open Rlc_numerics

type method_ = Newton_g | Nelder_mead

type result = {
  h : float;
  k : float;
  tau : float;
  delay_per_length : float;
  method_ : method_;
  newton_converged : bool;
  newton_iterations : int;
}

(* Residuals of equations (7)-(8), computed in complex arithmetic.  Both
   are the delay equation (3)'s structure times (s2 - s1): real for real
   poles, purely imaginary for a conjugate pair, zero at critical
   damping.  Dividing that factor out leaves a real function, smooth
   across critical damping; scaling by h and k makes it dimensionless. *)
let residuals ?(f = 0.5) stage =
  let cs = Pade.coeffs stage in
  let { Poles.s1; s2 } = Poles.of_coeffs cs in
  let sens = Poles.sensitivities stage in
  let tau = Delay.of_coeffs ~f cs in
  let h = stage.Stage.h in
  let open Cx in
  let e1 = exp (scale tau s1) and e2 = exp (scale tau s2) in
  (* (7) and (8) share one form; [c1], [c2] are (7)'s extra s/h terms *)
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

let objective ?(f = 0.5) node ~l ~h ~k =
  if h <= 0.0 || k <= 0.0 then nan
  else begin
    try
      let stage = Stage.of_node node ~l ~h ~k in
      Delay.of_stage ~f stage /. h
    with Invalid_argument _ | Delay.No_delay -> nan
  end

let make_result ~f node ~l ~h ~k ~method_ ~newton_iterations =
  let tau = Delay.of_stage ~f (Stage.of_node node ~l ~h ~k) in
  let newton_converged = method_ = Newton_g in
  { h; k; tau; delay_per_length = tau /. h; method_; newton_converged;
    newton_iterations }

(* The context both optimizer loops evaluate against, carried through
   the {!Rlc_circuit.Whatif} objective/residuals interface. *)
type stage_workspace = {
  sw_node : Rlc_tech.Node.t;
  sw_l : float;
  sw_f : float;
  sw_h0 : float;  (* (h, k) scaling seeds from the RC closed form *)
  sw_k0 : float;
}

let newton_residuals ws x =
  let h = x.(0) *. ws.sw_h0 and k = x.(1) *. ws.sw_k0 in
  if h <= 0.0 || k <= 0.0 then [| nan; nan |]
  else begin
    try
      let stage = Stage.of_node ws.sw_node ~l:ws.sw_l ~h ~k in
      let g1, g2 = residuals ~f:ws.sw_f stage in
      [| g1; g2 |]
    with Invalid_argument _ | Delay.No_delay -> [| nan; nan |]
  end

let optimize_newton_only ?(f = 0.5) node ~l =
  let rc = Rc_opt.optimize node in
  let h0 = rc.Rc_opt.h_opt and k0 = rc.Rc_opt.k_opt in
  let ws = { sw_node = node; sw_l = l; sw_f = f; sw_h0 = h0; sw_k0 = k0 } in
  let system =
    Rlc_circuit.Whatif.custom_residuals ~workspace:ws ~eval:newton_residuals
  in
  try
    let sol =
      Rlc_circuit.Whatif.solve_residuals ~max_iter:60 ~tol:1e-10
        ~lower:[| 1e-3; 1e-3 |] ~upper:[| 1e3; 1e3 |] system
        ~x0:[| 1.0; 1.0 |]
    in
    let h = sol.Newton.x.(0) *. h0 and k = sol.Newton.x.(1) *. k0 in
    if not sol.Newton.converged then None
    else
      Some
        (make_result ~f node ~l ~h ~k ~method_:Newton_g
           ~newton_iterations:sol.Newton.iterations)
  with Invalid_argument _ | Delay.No_delay | Lu.Singular -> None

(* Coarse multiplicative grid scan around the RC optimum to seed
   Nelder-Mead: at large l the optimum drifts several-fold away. *)
let grid_seed ~f node ~l ~h0 ~k0 =
  let pick ((_, _, vb) as best) (hm, km) =
    let h = hm *. h0 and k = km *. k0 in
    let v = objective ~f node ~l ~h ~k in
    if (not (Float.is_nan v)) && (Float.is_nan vb || v < vb) then (h, k, v)
    else best
  in
  let k_mults = [ 0.2; 0.35; 0.5; 0.7; 1.0; 1.4 ] in
  let grid =
    List.concat_map
      (fun hm -> List.map (fun km -> (hm, km)) k_mults)
      [ 0.5; 0.75; 1.0; 1.5; 2.0; 3.0; 4.5 ]
  in
  let h, k, _ = List.fold_left pick (pick (h0, k0, nan) (1.0, 1.0)) grid in
  (h, k)

(* tau/h over log-space (h, k) — Nelder-Mead's half of the unified
   interface; nan (out of domain) rejects per the Whatif convention. *)
let nm_objective ws x =
  objective ~f:ws.sw_f ws.sw_node ~l:ws.sw_l ~h:(Float.exp x.(0))
    ~k:(Float.exp x.(1))

let optimize_nm_only ?(f = 0.5) node ~l =
  let rc = Rc_opt.optimize node in
  let h0, k0 = grid_seed ~f node ~l ~h0:rc.Rc_opt.h_opt ~k0:rc.Rc_opt.k_opt in
  let ws = { sw_node = node; sw_l = l; sw_f = f; sw_h0 = h0; sw_k0 = k0 } in
  let obj = Rlc_circuit.Whatif.custom ~workspace:ws ~eval:nm_objective in
  let sol =
    Rlc_circuit.Whatif.minimize ~max_iter:4000 ~ftol:1e-14 ~xtol:1e-9 obj
      ~x0:[| Float.log h0; Float.log k0 |]
  in
  let h = Float.exp sol.Nelder_mead.x.(0)
  and k = Float.exp sol.Nelder_mead.x.(1) in
  make_result ~f node ~l ~h ~k ~method_:Nelder_mead ~newton_iterations:0

(* Second-order check at a Newton point: tau/h is not lower 1% away
   along +-h, +-k and both diagonals, so a saddle or a maximum of tau/h
   is never reported as the optimum. *)
let is_minimum ?f node ~l ~h ~k =
  let at (dh, dk) = objective ?f node ~l ~h:(h *. dh) ~k:(k *. dk) in
  let best = at (1.0, 1.0) in
  List.for_all
    (fun d -> not (at d < best))
    [ (1.01, 1.0); (0.99, 1.0); (1.0, 1.01); (1.0, 0.99); (1.01, 1.01);
      (1.01, 0.99) ]

let m_fallbacks = Rlc_instr.Metrics.counter "rlc_opt.fallbacks"

let optimize ?(f = 0.5) node ~l =
  let fallback reason =
    Rlc_instr.Metrics.incr m_fallbacks;
    if Rlc_instr.Journal.capturing () then
      Rlc_instr.Journal.record "rlc_opt.fallback"
        [
          ("reason", Rlc_instr.Journal.Str reason);
          ("node", Rlc_instr.Journal.Str node.Rlc_tech.Node.name);
          ("l", Rlc_instr.Journal.Num l);
        ];
    optimize_nm_only ~f node ~l
  in
  match optimize_newton_only ~f node ~l with
  | Some r when is_minimum ~f node ~l ~h:r.h ~k:r.k -> r
  | Some _ -> fallback "not_minimum"
  | None -> fallback "newton_diverged"

let sweep ?f ?(n = 26) node ~l_max =
  if n < 2 then invalid_arg "Rlc_opt.sweep: n < 2";
  if l_max <= 0.0 then invalid_arg "Rlc_opt.sweep: l_max <= 0";
  List.init n (fun i ->
      let l = float_of_int i /. float_of_int (n - 1) *. l_max in
      (l, optimize ?f node ~l))
