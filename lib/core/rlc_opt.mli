(** The paper's performance-optimization methodology (Section 2.2):
    minimize the delay per unit length tau / h of a repeated stage over
    the segment length h and the repeater size k.

    Stationarity gives equations (5)-(6), which after differentiating
    the delay equation become the residual system (7)-(8):

    g1(h,k) = (1-f)(s2_h - s1_h) - s2_h e^{s1 tau} + s1_h e^{s2 tau}
              - s2 tau (s1_h + s1/h) e^{s1 tau}
              + s1 tau (s2_h + s2/h) e^{s2 tau}
    g2(h,k) = (1-f)(s2_k - s1_k) - s2_k e^{s1 tau}
              - s2 tau s1_k e^{s1 tau} + s1_k e^{s2 tau}
              + s1 tau s2_k e^{s2 tau}

    (x_y denotes dx/dy).  Divided by the (s2 - s1) factor they share
    and scaled by h and k, they are the real pair
    r = (h v_h + tau v_t, k v_k), v the step response at t = tau:
    the condition d(tau/h) = 0 with tau_h = -v_h/v_t, tau_k = -v_k/v_t.

    [optimize] drives r to zero with a damped Newton iteration (the
    paper's method) whose Jacobian is analytic: the chain rule through
    tau(h, k) over the closed-form second derivatives of b1, b2 and of
    v ({!Step_response.partials}).  The Jacobian at an iterate reuses
    the delay its residual just solved, and each iterate's delay solve
    is seeded from the previous one ({!Delay.of_coeffs_near}), so one
    optimization costs about one delay solve per Newton point.  The
    point is accepted when the analytic second-order check
    ({!is_minimum_analytic}) passes, which needs no further solve.
    Only when Newton diverges or the check fails does it fall back to a
    derivative-free Nelder-Mead minimization of the same objective,
    counted in [rlc_opt.fallbacks] and journaled as an
    [rlc_opt.fallback] event. *)

type method_ = Newton_g | Nelder_mead

type result = {
  h : float;  (** optimal segment length, m *)
  k : float;  (** optimal repeater size *)
  tau : float;  (** stage delay at the optimum, s *)
  delay_per_length : float;  (** tau / h, s/m — the minimized objective *)
  method_ : method_;  (** which solver produced the reported optimum *)
  newton_converged : bool;
  newton_iterations : int;
}

val residuals : ?f:float -> Stage.t -> float * float
(** (g1, g2) of equations (7)-(8) at the stage's (h, k), divided by the
    (s2 - s1) factor they share, so both stay real and smooth across
    critical damping, and scaled by h and k to be dimensionless:
    (h v_h + tau v_t, k v_k).  [f] defaults to 0.5. *)

val jacobian : ?f:float -> Stage.t -> Rlc_numerics.Matrix.t
(** The analytic 2x2 Jacobian of {!residuals} with respect to (h, k). *)

val objective : ?f:float -> Rlc_tech.Node.t -> l:float -> h:float -> k:float -> float
(** tau/h for explicit (h, k) — the raw objective surface (used by
    benches and tests; [nan] outside the physical domain). *)

val is_minimum_analytic :
  ?f:float -> Rlc_tech.Node.t -> l:float -> h:float -> k:float -> bool
(** The second-order check [optimize] applies to a Newton point.  On
    the rising edge r = -v_t diag(h^2, h k) grad(tau/h), so where r
    vanishes the Hessian of tau/h is D^-1 J with D = -v_t diag(h^2, h k)
    and J = {!jacobian}.  The check holds when D^-1 J is positive
    definite and the Newton step J^-1 r is below 1e-6 relative to
    (h, k), so a saddle, a maximum or a non-stationary point is never
    reported as the optimum. *)

val is_minimum :
  ?f:float -> Rlc_tech.Node.t -> l:float -> h:float -> k:float -> bool
(** A seven-point check by objective evaluations: tau/h is not lower 1%
    away along +-h, +-k and both diagonals.  The independent oracle
    that {!is_minimum_analytic} is tested against. *)

val optimize : ?f:float -> Rlc_tech.Node.t -> l:float -> result
(** Full optimization for a node at line inductance [l] (H/m).
    Starts from the closed-form RC optimum. *)

val optimize_newton_only : ?f:float -> Rlc_tech.Node.t -> l:float -> result option
(** The paper's Newton iteration alone; [None] when it fails to
    converge.  Exposed so tests and benches can time it and quantify
    how often the fallback is needed. *)

val optimize_nm_only : ?f:float -> Rlc_tech.Node.t -> l:float -> result
(** Nelder-Mead alone (always converges on this problem). *)

val sweep :
  ?f:float -> ?n:int -> Rlc_tech.Node.t -> l_max:float -> (float * result) list
(** [(l, optimize node ~l)] for [n] (default 26) uniformly spaced
    inductance values in [0, l_max]. *)
