open Rlc_numerics

(* Relative pole separation below which the repeated-root formula is
   used instead of the two-pole formula. *)
let critical_band = 1e-7

let repeated_root_rate { Pade.b1; b2 } = b1 /. (2.0 *. b2)

let near_critical cs =
  let disc = Pade.discriminant cs in
  Float.abs disc <= critical_band *. cs.Pade.b1 *. cs.Pade.b1

(* The poles and partial-fraction weights of one coefficient pair,
   computed once and shared by every time point a root solve visits. *)
type curve =
  | Repeated of float  (* a = b1 / (2 b2) *)
  | Two_pole of { s1 : Cx.t; s2 : Cx.t; w1 : Cx.t; w2 : Cx.t; w12 : Cx.t }

let curve cs =
  if near_critical cs then Repeated (repeated_root_rate cs)
  else begin
    let { Poles.s1; s2 } = Poles.of_coeffs cs in
    let open Cx in
    let denom = s2 -: s1 in
    Two_pole
      { s1; s2; w1 = s2 /: denom; w2 = s1 /: denom; w12 = s1 *: s2 /: denom }
  end

let value curve t =
  if t < 0.0 then invalid_arg "Step_response.eval: t < 0";
  if t = 0.0 then 0.0
  else
    match curve with
    | Repeated a -> 1.0 -. ((1.0 +. (a *. t)) *. Float.exp (-.a *. t))
    | Two_pole { s1; s2; w1; w2; _ } ->
        let open Cx in
        let v =
          of_float 1.0 -: (w1 *: exp (scale t s1)) +: (w2 *: exp (scale t s2))
        in
        Cx.real_part_checked ~tol:1e-6 v

let slope curve t =
  if t < 0.0 then invalid_arg "Step_response.derivative: t < 0";
  match curve with
  | Repeated a -> a *. a *. t *. Float.exp (-.a *. t)
  | Two_pole { s1; s2; w12; _ } ->
      let open Cx in
      (* dv/dt = -s1 s2/(s2-s1) e^{s1 t} + s1 s2/(s2-s1) e^{s2 t} *)
      let v = w12 *: (exp (scale t s2) -: exp (scale t s1)) in
      Cx.real_part_checked ~tol:1e-6 v

let eval cs t = value (curve cs) t

let eval_stage stage t = eval (Pade.coeffs stage) t

let derivative cs t = slope (curve cs) t

type partials = {
  v : float;
  v_t : float;
  v_tt : float;
  v_b1 : float;
  v_b2 : float;
  v_tb2 : float;
  v_b1b1 : float;
  v_b1b2 : float;
  v_b2b2 : float;
}

(* Ch(z) = cosh sqrt z, Sh(z) = sinh sqrt z / sqrt z and Sh', Sh'': entire
   in z, so they pass through critical damping (z = 0) smoothly; for
   z < 0 they are cos and sin / x of sqrt(-z).  Sh' = (Ch - Sh) / 2z and
   Sh'' = (Sh/2 - 3 Sh') / 2z cancel near z = 0, where the Taylor series
   (11 terms: exact to rounding for |z| < 1) takes over. *)
let entire z =
  let ch, sh =
    if z > 0.0 then
      let x = Float.sqrt z in
      (Float.cosh x, Float.sinh x /. x)
    else if z < 0.0 then
      let x = Float.sqrt (-.z) in
      (Float.cos x, Float.sin x /. x)
    else (1.0, 1.0)
  in
  if Float.abs z >= 1.0 then begin
    let sh1 = (ch -. sh) /. (2.0 *. z) in
    (ch, sh, sh1, ((sh /. 2.0) -. (3.0 *. sh1)) /. (2.0 *. z))
  end
  else begin
    (* term n: z^n/(2n+1)! in Sh, (n+1) z^n/(2n+3)! in Sh',
       (n+1)(n+2) z^n/(2n+5)! in Sh'' *)
    let sh1 = ref 0.0 and sh2 = ref 0.0 in
    let zn = ref 1.0 and inv = ref (1.0 /. 6.0) (* 1/(2n+3)! *) in
    for n = 0 to 10 do
      let m = float_of_int n in
      sh1 := !sh1 +. ((m +. 1.0) *. !zn *. !inv);
      let inv5 = !inv /. (((2.0 *. m) +. 4.0) *. ((2.0 *. m) +. 5.0)) in
      sh2 := !sh2 +. ((m +. 1.0) *. (m +. 2.0) *. !zn *. inv5);
      zn := !zn *. z;
      inv := inv5
    done;
    (ch, sh, !sh1, !sh2)
  end

(* With a = b1/(2 b2), u = (b1^2 - 4 b2)/(4 b2^2), the poles are -a +- sqrt u
   and v = 1 - e^{-at} (C + a S), C = Ch(u t^2), S = t Sh(u t^2).  Since
   V(s) = 1/(s P), P = 1 + b1 s + b2 s^2 = b2 ((s + a)^2 - u), every
   partial is the inverse Laplace transform of some s^m / P^n:
   v_t = 1/P, v_b1 = -1/P^2, v_b2 = -s/P^2, v_b1b1 = 2s/P^3, and so on.
   Shifting s + a = sigma gives e^{-at} times the transforms
   K(n, j) = L^-1[sigma^j / (sigma^2 - u)^n], which are Ch, Sh and their
   u-derivatives (d/du K(n, j) = n K(n+1, j)). *)
let partials ({ Pade.b2; _ } as cs) t =
  let a = repeated_root_rate cs in
  let u = Pade.discriminant cs /. (4.0 *. b2 *. b2) in
  let z = u *. t *. t in
  let ch, sh, sh1, sh2 = entire z in
  let e = Float.exp (-.a *. t) in
  let t2 = t *. t in
  let t3 = t2 *. t in
  let k10 = t *. sh and k11 = ch in
  let k20 = t3 *. sh1 and k21 = t2 *. sh /. 2.0 in
  let k22 = t *. (sh +. (z *. sh1)) in
  let k30 = t3 *. t2 *. sh2 /. 2.0 and k31 = t3 *. t *. sh1 /. 4.0 in
  let k32 = t3 *. (sh1 +. (z *. sh2 /. 2.0)) in
  let k33 = t2 *. ((sh /. 2.0) +. (z *. sh1 /. 4.0)) in
  let e1 = e /. b2 in
  let e2 = e1 /. b2 in
  let e3 = 2.0 *. e2 /. b2 in
  {
    v = 1.0 -. (e *. (ch +. (a *. k10)));
    v_t = e1 *. k10;
    v_tt = e1 *. (k11 -. (a *. k10));
    v_b1 = -.e2 *. k20;
    v_b2 = -.e2 *. (k21 -. (a *. k20));
    v_tb2 = -.e2 *. (k22 -. (2.0 *. a *. k21) +. (a *. a *. k20));
    v_b1b1 = e3 *. (k31 -. (a *. k30));
    v_b1b2 = e3 *. (k32 -. (2.0 *. a *. k31) +. (a *. a *. k30));
    v_b2b2 =
      e3
      *. (k33 -. (3.0 *. a *. k32) +. (3.0 *. a *. a *. k31)
         -. (a *. a *. a *. k30));
  }

let waveform ?(v0 = 1.0) ?(n = 2000) cs ~t_end =
  if t_end <= 0.0 then invalid_arg "Step_response.waveform: t_end <= 0";
  let c = curve cs in
  Rlc_waveform.Waveform.of_fn ~n (fun t -> v0 *. value c t) ~t0:0.0 ~t1:t_end

let overshoot cs =
  let z = Pade.zeta cs in
  if z >= 1.0 then 0.0
  else Float.exp (-.Float.pi *. z /. Float.sqrt (1.0 -. (z *. z)))

let peak_time cs =
  let z = Pade.zeta cs in
  if z >= 1.0 then None
  else begin
    let wn = Pade.omega_n cs in
    Some (Float.pi /. (wn *. Float.sqrt (1.0 -. (z *. z))))
  end

let undershoot_depth cs =
  let ov = overshoot cs in
  ov *. ov
