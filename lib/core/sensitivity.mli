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
    element parameter of an arbitrary deck, compile it into a
    {!Rlc_circuit.Whatif} workspace and use {!gradient}. *)

val gradient :
  ?set:(Rlc_circuit.Whatif.param * float) list ->
  ?method_:[ `Fdiff | `Adjoint ] ->
  Rlc_circuit.Whatif.t ->
  Rlc_circuit.Whatif.target ->
  wrt:Rlc_circuit.Whatif.param array ->
  float array
(** [gradient ws target ~wrt] differentiates a circuit-level objective
    with respect to element parameters, evaluated at [set] (default:
    the base point).

    [`Fdiff] (the default — the legacy semantics) takes central
    differences of {!Rlc_circuit.Whatif.evaluate}, costing two
    evaluations per parameter; with the workspace's rank-1 fast path
    each is cheap, but the cost still scales with [Array.length wrt].
    [`Adjoint] delegates to {!Rlc_circuit.Whatif.gradient}: one
    forward + one transpose solve for the {e whole} gradient (three of
    each for the delay target).  The two methods agree to
    finite-difference accuracy (the test suite checks 1e-6 relative). *)

val delay_spread_estimate : ?f:float -> Stage.t -> l_uncertainty:float -> float
(** First-order delay spread (seconds) for a +/- [l_uncertainty] (H/m)
    inductance band: |d tau/d l| * 2 * l_uncertainty.  The Monte-Carlo
    module ({!Variation}) gives the exact distribution; this is the
    cheap linearised estimate, and the test suite checks they agree for
    small bands. *)
