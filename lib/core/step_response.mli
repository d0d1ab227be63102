(** Closed-form unit-step response of the second-order Padé model
    1/(1 + b1 s + b2 s^2), final value 1:

    v(t) = 1 - e^{-at} (cosh(wt) + a sinh(wt)/w),
    a = b1/(2 b2), w^2 = (b1^2 - 4 b2)/(4 b2^2)

    (the poles are -a +- w).  cosh(wt) and sinh(wt)/w are entire in
    w^2 t^2, so one real expression covers the overdamped, critically
    damped and underdamped regimes with no repeated-root branch.  Once
    w^2 t^2 > 4 the poles are real and apart, and e^{-at} is folded
    into the exponentials of the two poles, so nothing overflows or
    cancels for strongly overdamped pairs.  {!eval}, {!derivative} and
    {!partials} go through that one kernel and raise [Invalid_argument]
    for b2 <= 0 or t < 0. *)

val eval : Pade.coeffs -> float -> float
(** v(t) for t >= 0; [eval cs 0.0 = 0.0]. *)

val eval_stage : Stage.t -> float -> float

val derivative : Pade.coeffs -> float -> float
(** dv/dt (used by the Newton delay solver). *)

type partials = {
  v : float;
  v_t : float;
  v_tt : float;
  v_b1 : float;
  v_b2 : float;  (** dv/db2 at fixed t, which is also d2v/(dt db1) *)
  v_tb2 : float;
  v_b1b1 : float;
  v_b1b2 : float;
  v_b2b2 : float;
}
(** v and its partial derivatives in (t, b1, b2) up to second order. *)

val partials : Pade.coeffs -> float -> partials
(** [partials cs t] in closed form; [v] and [v_t] are bit-equal to
    {!eval} and {!derivative}.  Used for the analytic Jacobian of the
    (h, k) optimization and the what-if delay gradient. *)

val waveform : ?v0:float -> ?n:int -> Pade.coeffs -> t_end:float -> Rlc_waveform.Waveform.t
(** Sampled response scaled to final value [v0] (default 1.0). *)

val overshoot : Pade.coeffs -> float
(** Peak overshoot above the final value, as a fraction of the final
    value: exp(-pi zeta / sqrt(1 - zeta^2)) for zeta < 1, else 0. *)

val peak_time : Pade.coeffs -> float option
(** Time of the first response peak (underdamped only):
    pi / (omega_n sqrt(1 - zeta^2)). *)

val undershoot_depth : Pade.coeffs -> float
(** Depth of the first post-peak trough below the final value, as a
    fraction of the final value: overshoot^2 for an underdamped
    second-order system, else 0.  This is the excursion that flips
    inverters in Section 3.3.1. *)
