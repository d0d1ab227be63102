type coeffs = { b1 : float; b2 : float }

type partials = {
  db1_dh : float;
  db1_dk : float;
  db2_dh : float;
  db2_dk : float;
}

(* With R_S = rs/k, C_P = cp k, C_L = c0 k the coefficients expand to
   polynomials in (h, k):

   b1 = rs (cp + c0) + r c h^2/2 + rs c h / k + c0 r h k
   b2 = l c h^2/2 + r^2 c^2 h^4/24 + rs (cp + c0) r c h^2/2
      + (r c / 6) (rs c / k + c0 r k) h^3 + c0 k l h + rs cp c0 k r h *)

let coeffs stage =
  let { Line.r; l; c } = stage.Stage.line in
  let { Rlc_tech.Driver.rs; c0; cp } = stage.Stage.driver in
  let h = stage.Stage.h and k = stage.Stage.k in
  let b1 =
    (rs *. (cp +. c0))
    +. (r *. c *. h *. h /. 2.0)
    +. (rs *. c *. h /. k)
    +. (c0 *. r *. h *. k)
  in
  let b2 =
    (l *. c *. h *. h /. 2.0)
    +. (r *. r *. c *. c *. (h ** 4.0) /. 24.0)
    +. (rs *. (cp +. c0) *. r *. c *. h *. h /. 2.0)
    +. (r *. c /. 6.0 *. ((rs *. c /. k) +. (c0 *. r *. k)) *. (h ** 3.0))
    +. (c0 *. k *. l *. h)
    +. (rs *. cp *. c0 *. k *. r *. h)
  in
  { b1; b2 }

let partials stage =
  let { Line.r; l; c } = stage.Stage.line in
  let { Rlc_tech.Driver.rs; c0; cp } = stage.Stage.driver in
  let h = stage.Stage.h and k = stage.Stage.k in
  let db1_dh = (r *. c *. h) +. (rs *. c /. k) +. (c0 *. r *. k) in
  let db1_dk = (-.rs *. c *. h /. (k *. k)) +. (c0 *. r *. h) in
  let db2_dh =
    (l *. c *. h)
    +. (r *. r *. c *. c *. (h ** 3.0) /. 6.0)
    +. (rs *. (cp +. c0) *. r *. c *. h)
    +. (r *. c /. 2.0 *. ((rs *. c /. k) +. (c0 *. r *. k)) *. h *. h)
    +. (c0 *. k *. l)
    +. (rs *. cp *. c0 *. k *. r)
  in
  let db2_dk =
    (r *. c *. (h ** 3.0) /. 6.0 *. ((-.rs *. c /. (k *. k)) +. (c0 *. r)))
    +. (c0 *. l *. h)
    +. (rs *. cp *. c0 *. r *. h)
  in
  { db1_dh; db1_dk; db2_dh; db2_dk }

type second_partials = {
  d2b1_dh2 : float;
  d2b1_dhdk : float;
  d2b1_dk2 : float;
  d2b2_dh2 : float;
  d2b2_dhdk : float;
  d2b2_dk2 : float;
}

let second_partials stage =
  let { Line.r; l; c } = stage.Stage.line in
  let { Rlc_tech.Driver.rs; c0; cp } = stage.Stage.driver in
  let h = stage.Stage.h and k = stage.Stage.k in
  let cross_k = (-.rs *. c /. (k *. k)) +. (c0 *. r) in
  {
    d2b1_dh2 = r *. c;
    d2b1_dhdk = cross_k;
    d2b1_dk2 = 2.0 *. rs *. c *. h /. (k *. k *. k);
    d2b2_dh2 =
      (l *. c)
      +. (r *. r *. c *. c *. h *. h /. 2.0)
      +. (rs *. (cp +. c0) *. r *. c)
      +. (r *. c *. ((rs *. c /. k) +. (c0 *. r *. k)) *. h);
    d2b2_dhdk =
      (r *. c /. 2.0 *. cross_k *. h *. h)
      +. (c0 *. l)
      +. (rs *. cp *. c0 *. r);
    d2b2_dk2 = r *. c *. c *. rs *. (h ** 3.0) /. (3.0 *. k *. k *. k);
  }

let discriminant { b1; b2 } = (b1 *. b1) -. (4.0 *. b2)

type damping = Underdamped | Critically_damped | Overdamped

let classify ?(tol = 1e-9) ({ b1; _ } as cs) =
  let disc = discriminant cs in
  let scale = Float.max (b1 *. b1) 1e-300 in
  if Float.abs disc <= tol *. scale then Critically_damped
  else if disc < 0.0 then Underdamped
  else Overdamped

let omega_n { b2; _ } =
  if b2 <= 0.0 then invalid_arg "Pade.omega_n: b2 <= 0";
  1.0 /. Float.sqrt b2

let zeta { b1; b2 } =
  if b2 <= 0.0 then invalid_arg "Pade.zeta: b2 <= 0";
  b1 /. (2.0 *. Float.sqrt b2)
