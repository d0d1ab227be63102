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

(* Everything at one (h, k) that the residuals and their Jacobian
   need: the delay there and the step response's partials at it. *)
type point = {
  stage : Stage.t;
  tau : float;
  pd : Pade.partials;
  sr : Step_response.partials;
}

let point ~f ?seed stage =
  let cs = Pade.coeffs stage in
  let tau =
    match seed with
    | None -> Delay.of_coeffs ~f cs
    | Some seed -> Delay.of_coeffs_near ~f cs ~seed
  in
  { stage; tau; pd = Pade.partials stage; sr = Step_response.partials cs tau }

(* dv/dh and dv/dk at fixed t, and their t-derivatives *)
let v_h { pd; sr; _ } = (sr.v_b1 *. pd.db1_dh) +. (sr.v_b2 *. pd.db2_dh)
let v_k { pd; sr; _ } = (sr.v_b1 *. pd.db1_dk) +. (sr.v_b2 *. pd.db2_dk)
let v_th { pd; sr; _ } = (sr.v_b2 *. pd.db1_dh) +. (sr.v_tb2 *. pd.db2_dh)
let v_tk { pd; sr; _ } = (sr.v_b2 *. pd.db1_dk) +. (sr.v_tb2 *. pd.db2_dk)

(* Equations (7)-(8) divided by their shared (s2 - s1) factor and
   scaled by h and k are r = (h v_h + tau v_t, k v_k): the condition
   d(tau/h) = 0 with tau_h = -v_h / v_t, tau_k = -v_k / v_t. *)
let point_residuals ({ stage; tau; sr; _ } as p) =
  ((stage.Stage.h *. v_h p) +. (tau *. sr.v_t), stage.Stage.k *. v_k p)

(* d r / d(h, k) by the chain rule through tau(h, k), as rows
   (j11, j12), (j21, j22). *)
let point_jacobian ({ stage; tau; pd; sr } as p) =
  let h = stage.Stage.h and k = stage.Stage.k in
  let q = Pade.second_partials stage in
  (* d2v/dx dy at fixed t from (b1, b2)'s derivatives along x, along y
     and mixed *)
  let second (b1x, b2x) (b1y, b2y) (b1xy, b2xy) =
    (sr.v_b1b1 *. b1x *. b1y)
    +. (sr.v_b1b2 *. ((b1x *. b2y) +. (b1y *. b2x)))
    +. (sr.v_b2b2 *. b2x *. b2y)
    +. (sr.v_b1 *. b1xy)
    +. (sr.v_b2 *. b2xy)
  in
  let dh = (pd.db1_dh, pd.db2_dh) and dk = (pd.db1_dk, pd.db2_dk) in
  let v_hh = second dh dh (q.d2b1_dh2, q.d2b2_dh2)
  and v_hk = second dh dk (q.d2b1_dhdk, q.d2b2_dhdk)
  and v_kk = second dk dk (q.d2b1_dk2, q.d2b2_dk2) in
  let v_k = v_k p and v_th = v_th p and v_tk = v_tk p in
  let tau_h = -.v_h p /. sr.v_t and tau_k = -.v_k /. sr.v_t in
  ( (h *. (v_hh +. (v_th *. tau_h))) +. (tau *. (v_th +. (sr.v_tt *. tau_h))),
    (h *. (v_hk +. (v_th *. tau_k)))
    -. v_k
    +. (tau *. (v_tk +. (sr.v_tt *. tau_k))),
    k *. (v_hk +. (v_tk *. tau_h)),
    v_k +. (k *. (v_kk +. (v_tk *. tau_k))) )

(* On the rising edge r = -v_t diag(h^2, h k) grad(tau/h), so where r
   vanishes the Hessian of tau/h is congruent to -J diag(h, k) / (v_t h).
   A point is accepted as the minimum when that matrix is positive
   definite and the Newton step J^-1 r is below 1e-6 of (h, k): the
   step test is what rejects a point that only met Newton's absolute
   tolerance because every residual is tiny there. *)
let point_is_minimum ({ stage; _ } as p) =
  let h = stage.Stage.h and k = stage.Stage.k in
  let r1, r2 = point_residuals p in
  let j11, j12, j21, j22 = point_jacobian p in
  let det = (j11 *. j22) -. (j12 *. j21) in
  let step_h = ((j22 *. r1) -. (j12 *. r2)) /. det /. h
  and step_k = ((j11 *. r2) -. (j21 *. r1)) /. det /. k in
  let m11 = -.j11 *. h and m22 = -.j22 *. k
  and m12 = -.((j12 *. k) +. (j21 *. h)) /. 2.0 in
  Float.hypot step_h step_k < 1e-6
  && m11 > 0.0
  && (m11 *. m22) -. (m12 *. m12) > 0.0

let residuals ?(f = 0.5) stage = point_residuals (point ~f stage)

let jacobian ?(f = 0.5) stage =
  let j11, j12, j21, j22 = point_jacobian (point ~f stage) in
  Matrix.of_arrays [| [| j11; j12 |]; [| j21; j22 |] |]

let objective ?(f = 0.5) node ~l ~h ~k =
  if h <= 0.0 || k <= 0.0 then nan
  else begin
    try
      let stage = Stage.of_node node ~l ~h ~k in
      Delay.of_stage ~f stage /. h
    with Invalid_argument _ | Delay.No_delay -> nan
  end

let is_minimum_analytic ?(f = 0.5) node ~l ~h ~k =
  try point_is_minimum (point ~f (Stage.of_node node ~l ~h ~k))
  with Invalid_argument _ | Delay.No_delay -> false

let make_result ~tau ~h ~k ~method_ ~newton_iterations =
  let newton_converged = method_ = Newton_g in
  { h; k; tau; delay_per_length = tau /. h; method_; newton_converged;
    newton_iterations }

(* The context both optimizer loops evaluate against.  Newton iterates
   in (h/h0, k/k0); [last] is the point its residual solved most
   recently, which the Jacobian at the same iterate reuses and whose
   delay seeds the next iterate's solve. *)
type workspace = {
  node : Rlc_tech.Node.t;
  l : float;
  f : float;
  h0 : float;  (* (h, k) scaling seeds *)
  k0 : float;
  mutable last : (float array * point) option;
}

let workspace ~f node ~l ~h0 ~k0 = { node; l; f; h0; k0; last = None }

let point_at ws x =
  match ws.last with
  | Some (x', p) when x'.(0) = x.(0) && x'.(1) = x.(1) -> p
  | last ->
      let seed = Option.map (fun (_, p) -> p.tau) last in
      let stage =
        Stage.of_node ws.node ~l:ws.l ~h:(x.(0) *. ws.h0) ~k:(x.(1) *. ws.k0)
      in
      let p = point ~f:ws.f ?seed stage in
      ws.last <- Some (Array.copy x, p);
      p

let newton_residuals ws x =
  if x.(0) <= 0.0 || x.(1) <= 0.0 then [| nan; nan |]
  else begin
    try
      let r1, r2 = point_residuals (point_at ws x) in
      [| r1; r2 |]
    with Invalid_argument _ | Delay.No_delay -> [| nan; nan |]
  end

let newton_jacobian ws x =
  let j11, j12, j21, j22 = point_jacobian (point_at ws x) in
  Matrix.of_arrays
    [| [| j11 *. ws.h0; j12 *. ws.k0 |]; [| j21 *. ws.h0; j22 *. ws.k0 |] |]

(* Newton's point with the analytic second-order check's verdict on it;
   [None] when Newton does not converge. *)
let newton_point ~f node ~l =
  let rc = Rc_opt.optimize node in
  let ws = workspace ~f node ~l ~h0:rc.Rc_opt.h_opt ~k0:rc.Rc_opt.k_opt in
  try
    let sol =
      Newton.solve_ctx ~max_iter:60 ~tol:1e-10 ~jacobian:newton_jacobian
        ~lower:[| 1e-3; 1e-3 |] ~upper:[| 1e3; 1e3 |] ~ctx:ws
        ~f:newton_residuals ~x0:[| 1.0; 1.0 |] ()
    in
    if not sol.Newton.converged then None
    else begin
      let p = point_at ws sol.Newton.x in
      let r =
        make_result ~tau:p.tau ~h:p.stage.Stage.h ~k:p.stage.Stage.k
          ~method_:Newton_g ~newton_iterations:sol.Newton.iterations
      in
      Some (r, point_is_minimum p)
    end
  with Invalid_argument _ | Delay.No_delay | Lu.Singular -> None

let optimize_newton_only ?(f = 0.5) node ~l =
  Option.map fst (newton_point ~f node ~l)

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

(* tau/h over log-space (h, k); nan (out of domain) rejects *)
let nm_objective ws x =
  objective ~f:ws.f ws.node ~l:ws.l ~h:(Float.exp x.(0)) ~k:(Float.exp x.(1))

let optimize_nm_only ?(f = 0.5) node ~l =
  let rc = Rc_opt.optimize node in
  let h0, k0 = grid_seed ~f node ~l ~h0:rc.Rc_opt.h_opt ~k0:rc.Rc_opt.k_opt in
  let sol =
    Nelder_mead.minimize_ctx ~max_iter:4000 ~ftol:1e-14 ~xtol:1e-9
      ~ctx:(workspace ~f node ~l ~h0 ~k0) ~f:nm_objective
      ~x0:[| Float.log h0; Float.log k0 |] ()
  in
  let h = Float.exp sol.Nelder_mead.x.(0)
  and k = Float.exp sol.Nelder_mead.x.(1) in
  let tau = Delay.of_stage ~f (Stage.of_node node ~l ~h ~k) in
  make_result ~tau ~h ~k ~method_:Nelder_mead ~newton_iterations:0

(* The seven-point check: tau/h is not lower 1% away along +-h, +-k and
   both diagonals.  [optimize] uses the analytic check instead; this
   one is the tests' independent oracle for it. *)
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
  match newton_point ~f node ~l with
  | Some (r, true) -> r
  | Some (_, false) -> fallback "not_minimum"
  | None -> fallback "newton_diverged"

let sweep ?f ?(n = 26) node ~l_max =
  if n < 2 then invalid_arg "Rlc_opt.sweep: n < 2";
  if l_max <= 0.0 then invalid_arg "Rlc_opt.sweep: l_max <= 0";
  List.init n (fun i ->
      let l = float_of_int i /. float_of_int (n - 1) *. l_max in
      (l, optimize ?f node ~l))
