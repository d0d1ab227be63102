(** DC operating point: capacitors open, inductors short (their series
    resistance remains), sources at their t = 0 value, inverter logic
    states resolved by fixed-point iteration.

    The solve runs on the shared stamp IR ({!Assembly.t}): the DC
    system is simply the IR's [G] block — the inductor branch rows
    with [R] on the diagonal reduce to shorts-with-series-resistance
    at [s = 0] — factored once under the shared
    {!Rlc_numerics.Solver.plan}.  {!make} exposes that factorisation
    as a {!system}, so the operating point, every inverter fixed-point
    pass, and the per-source sensitivities all reuse one LU. *)

type system
(** A netlist compiled and factored for DC: holds the stamp IR, the
    [G] factorisation, the settled inverter states and the solved
    operating point. *)

val make :
  ?max_state_iterations:int ->
  ?assembly:Assembly.t ->
  ?symbolic:Rlc_numerics.Solver.symbolic ->
  Netlist.t ->
  system
(** Compile, factor once, and settle the operating point.  Raises
    [Failure] on a singular system — run {!Netlist.validate} first for
    a better diagnostic — and [Failure] when the inverter states do
    not settle (a ring oscillator has no stable DC point; use the
    transient engine for those).

    [?assembly] skips the compile step by adopting an already-built
    stamp IR (it must be the IR of [netlist]); [?symbolic] replays a
    previous sparse analysis of the same G pattern, turning the
    factorisation into a numeric refactor.  Both are the serving
    layer's compiled-deck cache hooks; both are sound only across
    decks with equal {!Netlist.structural_signature}. *)

val voltages : system -> float array
(** Node voltages (index = node id, entry 0 is ground = 0 V). *)

val unknowns : system -> float array
(** The full MNA solution vector (node voltages, then inductor branch
    currents, then voltage-source currents — the unknown order of
    {!Assembly.t}). *)

val assembly : system -> Assembly.t
(** The stamp IR behind the system. *)

val factor : system -> Rlc_numerics.Solver.factor
(** The settled G factorisation itself — the base factor a
    {!Whatif} workspace builds its rank-k updates over.  Read-only;
    sharing it is safe (factors are immutable once built). *)

val rhs : system -> float array
(** Copy of the DC right-hand side the operating point was solved
    against: sources at their t = 0 values plus the settled inverter
    drives.  [factor], [rhs] and {!unknowns} satisfy
    [G x = rhs] exactly — the invariant what-if perturbations start
    from. *)

val g_symbolic : system -> Rlc_numerics.Solver.symbolic option
(** The sparse symbolic analysis behind the G factorisation ([None] on
    the dense/banded backends).  A compiled-deck cache stores this and
    feeds it back through {!make}'s [?symbolic]; comparing it
    physically against the symbolic that was passed in detects a
    repivot fallback (the factor re-analysed instead of replaying). *)

val inputs : system -> Assembly.input array
(** The independent sources, in the input-column order
    {!sensitivity} indexes. *)

val sensitivity : system -> input:int -> float array
(** [sensitivity sys ~input] is d(node voltages)/d(u_input) — the node
    voltages' first-order response to a unit change in that source's
    DC value, from the already-computed factorisation (one banded or
    dense back-substitution, no new LU).  Inverter logic states are
    held at their settled values (small-signal assumption).  Index =
    node id, entry 0 is ground.  Raises [Invalid_argument] on a bad
    input index. *)

val operating_point : ?max_state_iterations:int -> Netlist.t -> float array
(** [voltages (make netlist)] — the historical one-shot entry point. *)

val initial_conditions :
  ?max_state_iterations:int -> Netlist.t -> (Netlist.node * float) list
(** The operating point as a {!Transient.Config.t} [initial_voltages]
    list for {!Transient.simulate} — start a transient from the settled
    DC state instead of all-zeros. *)
