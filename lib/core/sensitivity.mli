(** Analytic sensitivity of the stage delay to its physical parameters.

    The f-delay tau is defined implicitly by v(tau; b1, b2) = f, so by
    the implicit function theorem

      d tau / d theta
        = - (dv/db1 * db1/dtheta + dv/db2 * db2/dtheta) / (dv/dt)

    dv/dt comes from the closed-form step-response derivative; the
    b-coefficient derivatives with respect to (r, l, c, rs, c0, cp) are
    simple polynomials.  This quantifies Section 3.2 of the paper
    pointwise: how many picoseconds each nH/mm of inductance
    uncertainty costs at a given design point. *)

type t = {
  wrt_l : float;  (** d tau / d l, s / (H/m) *)
  wrt_c : float;  (** d tau / d c, s / (F/m) *)
  wrt_r : float;  (** d tau / d r, s / (ohm/m) *)
  wrt_rs : float;  (** d tau / d rs, s / ohm *)
  elasticity_l : float;
      (** (l / tau) d tau / d l — relative delay change per relative
          inductance change; 0 at l = 0 by construction *)
  elasticity_c : float;
  elasticity_r : float;
}

val of_stage : ?f:float -> Stage.t -> t
(** Raises [Invalid_argument] for a degenerate stage (dv/dt = 0 at the
    crossing, which cannot happen for the first crossing of a stable
    stage).  This is the closed-form stage model: it answers for the
    four built-in parameters of a single analytic stage.  For any
    element parameter of an arbitrary deck, compile it into a what-if
    workspace ([Whatif] in the circuit library) and take its adjoint
    [Whatif.gradient]. *)

val delay_spread_estimate : ?f:float -> Stage.t -> l_uncertainty:float -> float
(** First-order delay spread (seconds) for a +/- [l_uncertainty] (H/m)
    inductance band: |d tau/d l| * 2 * l_uncertainty.  The Monte-Carlo
    module ({!Variation}) gives the exact distribution; this is the
    cheap linearised estimate, and the test suite checks they agree for
    small bands. *)
