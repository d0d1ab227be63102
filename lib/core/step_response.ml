(* Since V(s) = 1/(s P), P = 1 + b1 s + b2 s^2, every partial of v is an
   inverse Laplace transform F(n, m) of s^m / P^n: v_t = F(1, 0),
   v_tt = F(1, 1), v_b1 = -F(2, 0), v_b2 = -F(2, 1), v_tb2 = -F(2, 2),
   v_b1b1 = 2 F(3, 1), v_b1b2 = 2 F(3, 2), v_b2b2 = 2 F(3, 3).  [entire]
   and [add_share] below write b2^n F(n, m) for those after v_t into
   k.(2) .. k.(8), in that order, each cancellation-free on its side of
   [split_z]. *)

(* Up to [split_z] (and whenever the poles are complex): shifting
   s + a = sigma gives e^{-at} = [e] times the transforms
   K(n, j) = L^-1[sigma^j / (sigma^2 - u)^n], which are Ch(z) =
   cosh sqrt z, Sh(z) = sinh sqrt z / sqrt z (entire in z, so smooth
   through critical damping at z = 0) and their z-derivatives
   Sh' = (Ch - Sh) / 2z and Sh'' = (Sh/2 - 3 Sh') / 2z
   (d/du K(n, j) = n K(n+1, j)).  Those cancel near z = 0, where the
   Taylor series (11 terms: exact to rounding for |z| < 1) takes over.
   s^m = (sigma - a)^m expands binomially, which cancels once the poles
   are real and far apart (a >> alpha), so this form stops at
   [split_z]. *)
let entire k ~ch ~sh ~e a z t =
  let sh1, sh2 =
    if Float.abs z >= 1.0 then begin
      let sh1 = (ch -. sh) /. (2.0 *. z) in
      (sh1, ((sh /. 2.0) -. (3.0 *. sh1)) /. (2.0 *. z))
    end
    else begin
      (* term n: (n+1) z^n/(2n+3)! in Sh', (n+1)(n+2) z^n/(2n+5)! in Sh'' *)
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
      (!sh1, !sh2)
    end
  in
  let t2 = t *. t in
  let t3 = t2 *. t in
  let k10 = t *. sh and k11 = ch in
  let k20 = t3 *. sh1 and k21 = t2 *. sh /. 2.0 in
  let k22 = t *. (sh +. (z *. sh1)) in
  let k30 = t3 *. t2 *. sh2 /. 2.0 and k31 = t3 *. t *. sh1 /. 4.0 in
  let k32 = t3 *. (sh1 +. (z *. sh2 /. 2.0)) in
  let k33 = t2 *. ((sh /. 2.0) +. (z *. sh1 /. 4.0)) in
  k.(2) <- e *. (k11 -. (a *. k10));
  k.(3) <- e *. k20;
  k.(4) <- e *. (k21 -. (a *. k20));
  k.(5) <- e *. (k22 -. (2.0 *. a *. k21) +. (a *. a *. k20));
  k.(6) <- e *. (k31 -. (a *. k30));
  k.(7) <- e *. (k32 -. (2.0 *. a *. k31) +. (a *. a *. k30));
  k.(8) <-
    e
    *. (k33 -. (3.0 *. a *. k32) +. (3.0 *. a *. a *. k31)
       -. (a *. a *. a *. k30))

(* Beyond [split_z]: partial fractions over the real poles p = -alpha,
   -beta.  The pole p's share of L^-1[s^m / ((s - p)^n (s - q)^n)],
   d = p - q, is the (n-1)th Taylor coefficient at p of
   s^m e^{st} (s - q)^-n, by Leibniz e sum_k g_k(m) h_{n-1-k}(n), with
   e = e^{pt} and the Taylor coefficients at p
     g_k(m) of s^m e^{(s-p)t}: g_k(0) = t^k/k!,
                               g_k(m) = p g_k(m-1) + g_(k-1)(m-1),
     h_j(n) of (s - q)^-n:     C(n+j-1, j) (-1)^j / d^(n+j).
   Every term is a product, so only the two poles' shares can cancel,
   and they stay apart once w t > 2. *)
let add_share k ~p ~e ~d t =
  let g10 = t and g20 = t *. t /. 2.0 in
  let g01 = p and g11 = (p *. g10) +. 1.0 and g21 = (p *. g20) +. g10 in
  let g02 = p *. g01 and g12 = (p *. g11) +. g01 in
  let g22 = (p *. g21) +. g11 in
  let g03 = p *. g02 and g13 = (p *. g12) +. g02 in
  let g23 = (p *. g22) +. g12 in
  let i1 = 1.0 /. d in
  let i2 = i1 *. i1 in
  let i3 = i2 *. i1 in
  let i4 = i3 *. i1 in
  let i5 = i4 *. i1 in
  let add i x = k.(i) <- k.(i) +. (e *. x) in
  add 2 (g01 *. i1);
  add 3 ((g10 *. i2) -. (2.0 *. i3));
  add 4 ((g11 *. i2) -. (2.0 *. g01 *. i3));
  add 5 ((g12 *. i2) -. (2.0 *. g02 *. i3));
  add 6 ((g21 *. i3) -. (3.0 *. g11 *. i4) +. (6.0 *. g01 *. i5));
  add 7 ((g22 *. i3) -. (3.0 *. g12 *. i4) +. (6.0 *. g02 *. i5));
  add 8 ((g23 *. i3) -. (3.0 *. g13 *. i4) +. (6.0 *. g03 *. i5))

(* Past z = u t^2 = 4 (u > 0, w t = 2) the two real poles are far
   enough apart for partial fractions to lose nothing: against a 40-digit
   reference, this switch point keeps every partial within 4e-13
   relative on both sides (1.7e-12 when switching at z = 1). *)
let split_z = 4.0

(* The damped kernel: [| v; v_t |] = 1 - (c + a s), s / b2 with
   c = e^{-at} cosh(wt) and s = e^{-at} sinh(wt)/w, followed, when
   [second], by the seven b2^n F(n, m).  Past [split_z] cosh(wt) could
   overflow while e^{-at} underflows, so the exponentials are folded
   into those of the poles, alpha = a - w taken as 1/(b2 beta)
   (alpha beta = 1/b2) free of cancellation:
   c, s = (e^{-alpha t} +- e^{-beta t}) / 2 and / 2w. *)
let kernel ctx ~second ({ Pade.b1; b2 } as cs) t =
  if not (b2 > 0.0) then invalid_arg (ctx ^ ": b2 <= 0");
  if t < 0.0 then invalid_arg (ctx ^ ": t < 0");
  let a = b1 /. (2.0 *. b2) in
  let u = Pade.discriminant cs /. (4.0 *. b2 *. b2) in
  let z = u *. t *. t in
  let k = Array.make (if second then 9 else 2) 0.0 in
  let c, s =
    if z > split_z then begin
      let w = Float.sqrt u in
      let beta = a +. w in
      let alpha = 1.0 /. (b2 *. beta) in
      let ea = Float.exp (-.alpha *. t) and eb = Float.exp (-.beta *. t) in
      if second then begin
        add_share k ~p:(-.alpha) ~e:ea ~d:(2.0 *. w) t;
        add_share k ~p:(-.beta) ~e:eb ~d:(-2.0 *. w) t
      end;
      ((ea +. eb) /. 2.0, (ea -. eb) /. (2.0 *. w))
    end
    else begin
      (* Ch, Sh; for z < 0 they are cos and sin / x of sqrt(-z) *)
      let x = Float.sqrt (Float.abs z) in
      let ch, sh =
        if z > 0.0 then (Float.cosh x, Float.sinh x /. x)
        else if z < 0.0 then (Float.cos x, Float.sin x /. x)
        else (1.0, 1.0)
      in
      let e = Float.exp (-.a *. t) in
      if second then entire k ~ch ~sh ~e a z t;
      (e *. ch, e *. t *. sh)
    end
  in
  k.(0) <- 1.0 -. (c +. (a *. s));
  k.(1) <- s /. b2;
  k

let eval cs t = (kernel "Step_response.eval" ~second:false cs t).(0)

let eval_stage stage t = eval (Pade.coeffs stage) t

let derivative cs t = (kernel "Step_response.derivative" ~second:false cs t).(1)

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

let partials ({ Pade.b2; _ } as cs) t =
  let k = kernel "Step_response.partials" ~second:true cs t in
  let e1 = 1.0 /. b2 in
  let e2 = e1 /. b2 in
  let e3 = 2.0 *. e2 /. b2 in
  {
    v = k.(0);
    v_t = k.(1);
    v_tt = e1 *. k.(2);
    v_b1 = -.e2 *. k.(3);
    v_b2 = -.e2 *. k.(4);
    v_tb2 = -.e2 *. k.(5);
    v_b1b1 = e3 *. k.(6);
    v_b1b2 = e3 *. k.(7);
    v_b2b2 = e3 *. k.(8);
  }

let waveform ?(v0 = 1.0) ?(n = 2000) cs ~t_end =
  if t_end <= 0.0 then invalid_arg "Step_response.waveform: t_end <= 0";
  Rlc_waveform.Waveform.of_fn ~n (fun t -> v0 *. eval cs t) ~t0:0.0 ~t1:t_end

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
