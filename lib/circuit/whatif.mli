(** Incremental what-if evaluation: compile a netlist once, then serve
    thousands of near-identical re-evaluations cheaply.

    The paper's (h, k) performance-optimization methodology — and
    every Monte-Carlo, corner and sweep built on it — is a what-if
    loop: the same RLC system solved over and over with a handful of
    element values changed per point.  Re-stamping and re-factoring
    from scratch per point wastes almost all of that work.  This
    module compiles the deck once into a {e workspace} — the
    {!Assembly} stamp IR, the shared {!Rlc_numerics.Solver.plan}, the
    sparse symbolic analysis and the factored base operating point —
    and serves each perturbed evaluation by a Sherman-Morrison-
    Woodbury rank-k update ({!Rlc_numerics.Update}) over the base
    factor: a change to one segment's r/l/c touches O(1) stamp
    positions, so the perturbed solve costs k extra triangular solves
    instead of a fresh LU.

    Exactness guard: the Woodbury identity loses digits when the
    k x k capacitance matrix is ill-conditioned, and stops paying when
    k grows.  When the update count exceeds [max_rank] or the
    condition estimate exceeds [condition_limit], the evaluation falls
    back to a numeric refactor that still reuses the sparse symbolic
    analysis (counted on [whatif.fallback] / [whatif.refactor];
    fast-path evaluations count on [whatif.update]).

    On the same workspace, {!gradient} computes adjoint sensitivities:
    generalizing {!Dc.sensitivity}'s one-LU-per-source trick, the
    gradient of a scalar objective with respect to {e all} n
    parameters costs one forward + one transpose solve (three of each
    for the moment-based delay), instead of the 2n solves of central
    differences.

    Inverter logic states are settled once at compile time and held
    fixed across perturbations (the same small-signal assumption as
    {!Dc.sensitivity}). *)

type t
(** A compiled what-if workspace.  Not domain-safe: workspaces cache
    lazily (z-columns, transpose factors, AC points); share one per
    domain or keep evaluation on one domain. *)

val compile :
  ?max_rank:int ->
  ?condition_limit:float ->
  ?f:float ->
  ?assembly:Assembly.t ->
  ?symbolic:Rlc_numerics.Solver.symbolic ->
  Netlist.t ->
  t
(** Compile and factor once.  [max_rank] (default 8) bounds the update
    rank served by the fast path; 0 forces every perturbed evaluation
    onto the refactor path (the from-scratch baseline the bench gates
    against).  [condition_limit] (default 1e8) is the exactness guard
    on the Woodbury capacitance matrix.  [f] (default 0.5) is the
    threshold fraction of the {!target.Delay} objective.  Raises like
    {!Dc.make} (singular deck, unsettled inverters) and
    [Invalid_argument] on bad arguments.

    [?assembly] and [?symbolic] are {!Dc.make}'s compiled-deck hooks,
    passed through: an already-stamped IR of [netlist] (the workspace
    only reads it, so it may be shared) skips planning and
    validation, and a sparse analysis of the same G pattern turns the
    base factorisation, and every refactor-path evaluation, into a
    numeric replay.  Sound only across decks with equal
    {!Netlist.structural_signature}; with them, the workspace is
    bit-identical to a plain [compile] wherever the variant's own
    analysis would pick the same pivots.  The workspace itself stays
    per caller: it is mutable. *)

val assembly : t -> Assembly.t

val g_symbolic : t -> Rlc_numerics.Solver.symbolic option
(** The sparse analysis behind the base factor, as {!Dc.g_symbolic}:
    physically the [?symbolic] passed to {!compile} unless its replay
    fell back to a fresh analysis. *)

(** {1 Parameters} *)

type param
(** A handle to one perturbable element value, resolved once to its
    O(1) stamp positions. *)

val param : t -> string -> [ `R | `L | `C | `M ] -> param
(** [param t name kind] resolves element [name]'s value of [kind]:
    [`R] ohms (resistor or series branch resistance), [`C] farads,
    [`L] self-inductance henries, [`M] mutual inductance.  Handles are
    memoized — repeated calls return the same handle, keeping the
    workspace's per-direction solve caches warm.  Raises
    [Invalid_argument] for an unknown element or a kind the element
    does not have. *)

val base_value : param -> float
(** The unperturbed netlist value. *)

(** {1 Evaluation} *)

type target =
  | Dc_voltage of Netlist.node
      (** operating-point voltage at a node *)
  | Delay of Netlist.node
      (** two-pole (AWE Padé) threshold-crossing delay, seconds, of
          the step response at a node driven by the deck's first
          source: {!Rlc_core.Delay.of_coeffs} on the Padé pair
          (b1, b2) of the transfer's first three moments, so it is
          bit-equal to the analytic core on the same moments; [nan]
          unless b1 > 0 and b2 > 0 *)
  | Ac_mag of Netlist.node * float
      (** |V(node)| at angular frequency omega (rad/s) for a unit
          drive at the deck's first source *)

val evaluate : ?set:(param * float) list -> t -> target -> float
(** [evaluate ~set t target] evaluates [target] with each listed
    parameter set to the given {e absolute} value (unlisted parameters
    keep their base values; list each parameter at most once).
    Returns [nan] for non-physical settings (e.g. a non-positive
    resistance), a singular perturbed system, or an unstable delay —
    the rejection convention {!Rlc_numerics.Nelder_mead} expects.
    The base point ([set] empty or all-base values) is served from the
    compiled operating point without any solve. *)

val gradient :
  ?set:(param * float) list -> t -> target -> wrt:param array -> float array
(** Adjoint gradient of [target] with respect to each parameter in
    [wrt], evaluated at [set] (default: the base point).  One forward
    + one transpose solve regardless of [Array.length wrt] (three of
    each for [Delay], which needs three moments).  Counted on
    [whatif.adjoint]. *)

type stats = { updates : int; refactors : int; fallbacks : int }
(** [updates]: evaluations served by the rank-k fast path.
    [refactors]: evaluations served by a numeric refactor.
    [fallbacks]: the subset of refactors forced by the exactness
    guard (rank over [max_rank], condition over [condition_limit], or
    a singular capacitance matrix). *)

val stats : t -> stats
(** Plain-int mirror of the [whatif.*] counters for this workspace,
    independent of {!Rlc_instr.Metrics} recording. *)

val objective : t -> target -> wrt:param array -> float array -> float
(** [objective t target ~wrt] is the function an optimizer minimizes:
    a vector of absolute values for [wrt] maps onto {!evaluate} with
    those settings.  Raises [Invalid_argument] when the vector's length
    is not [wrt]'s. *)
