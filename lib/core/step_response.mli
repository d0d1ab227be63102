(** Closed-form unit-step response of the second-order Padé model:

    v(t) = 1 - s2/(s2 - s1) exp(s1 t) + s1/(s2 - s1) exp(s2 t)

    (final value 1).  Near critical damping the expression suffers
    catastrophic cancellation, so a repeated-root formula
    v(t) = 1 - (1 + a t) exp(-a t), a = b1 / (2 b2), takes over. *)

type curve
(** One coefficient pair's poles and partial-fraction weights, computed
    once for a solve that evaluates the response at many times. *)

val curve : Pade.coeffs -> curve

val value : curve -> float -> float
(** v(t) for t >= 0; [value c 0.0 = 0.0].  Negative [t] raises
    [Invalid_argument]. *)

val slope : curve -> float -> float
(** dv/dt in closed form (used by the Newton delay solver). *)

val eval : Pade.coeffs -> float -> float
(** [eval cs t] is [value (curve cs) t]. *)

val eval_stage : Stage.t -> float -> float

val derivative : Pade.coeffs -> float -> float
(** [derivative cs t] is [slope (curve cs) t]. *)

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
(** [partials cs t] in closed form for t >= 0, written as
    v = 1 - e^{-at} (cosh(wt) + a sinh(wt)/w), a = b1/(2 b2),
    w^2 = (b1^2 - 4 b2)/(4 b2^2), through functions entire in w^2 t^2:
    smooth across critical damping, with no separate repeated-root
    branch.  Used for the analytic Jacobian of the (h, k) optimization. *)

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
