(** Second-order Padé expansion of the stage transfer function
    (equation (2) of the paper):

    H(s) ~ 1 / (1 + b1 s + b2 s^2)

    with the coefficients of Section 2.1:

    b1 = R_S (C_P + C_L) + r c h^2 / 2 + R_S c h + C_L r h
    b2 = l c h^2 / 2 + r^2 c^2 h^4 / 24 + R_S (C_P + C_L) r c h^2 / 2
       + (R_S c h + C_L r h) r c h^2 / 6 + C_L l h + R_S C_P C_L r h

    and their analytic partial derivatives with respect to the segment
    length h and the repeater size k, to second order (used by
    equations (7)-(8) and their Jacobian). *)

type coeffs = { b1 : float; b2 : float }

type partials = {
  db1_dh : float;
  db1_dk : float;
  db2_dh : float;
  db2_dk : float;
}

type second_partials = {
  d2b1_dh2 : float;
  d2b1_dhdk : float;
  d2b1_dk2 : float;
  d2b2_dh2 : float;
  d2b2_dhdk : float;
  d2b2_dk2 : float;
}

val coeffs : Stage.t -> coeffs
val partials : Stage.t -> partials

val second_partials : Stage.t -> second_partials
(** The closed-form second derivatives of b1 and b2 in (h, k), which
    the analytic Jacobian of equations (7)-(8) needs. *)

val discriminant : coeffs -> float
(** b1^2 - 4 b2: negative for underdamped, zero critical, positive
    overdamped (Figure 2). *)

type damping = Underdamped | Critically_damped | Overdamped

val classify : ?tol:float -> coeffs -> damping
(** [tol] is the relative width of the "critical" band (default 1e-9
    relative to b1^2). *)

val omega_n : coeffs -> float
(** Natural frequency 1/sqrt(b2), rad/s. *)

val zeta : coeffs -> float
(** Damping factor b1 / (2 sqrt(b2)); < 1 underdamped. *)
