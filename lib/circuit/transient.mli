(** Fixed-step MNA transient simulation.

    Companion-model formulation: capacitors and series-RL branches
    become Norton equivalents (trapezoidal by default, backward Euler
    available and always used for the very first step), voltage sources
    add branch-current unknowns, and the threshold-switched inverters
    are resolved by a per-step fixed-point iteration on their logic
    states.  Because switching only changes source terms, the MNA
    matrix is factorised once per (method, dt) and reused for every
    step.

    The engine reorders the MNA unknowns with reverse Cuthill-McKee at
    construction time and measures the bandwidth the stamped structure
    achieves under that ordering; ladder-shaped systems (kl = ku of
    2-3 independent of length) are then factorised and solved with the
    banded kernel ({!Rlc_numerics.Banded}) instead of dense LU,
    dropping the per-step cost from O(m^2) to O(m·(kl+ku)).  A step is
    one solve plus one pass over a flat element table, which commits
    the step taken and builds the next step's right-hand side
    together.  It works in preallocated buffers: once the run's
    factorisations are cached, a step allocates nothing (evaluating a
    PWL source is the one exception). *)

type integration = Trapezoidal | Backward_euler

type backend = Rlc_numerics.Solver.backend =
  | Auto
      (** cost-model choice: banded for narrow bands, sparse when the
          predicted min-degree fill beats the predicted banded work,
          dense for small systems *)
  | Dense  (** force dense LU *)
  | Banded  (** force the banded kernel *)
  | Sparse  (** force general sparse LU (min-degree ordered) *)
      (** Re-export of {!Rlc_numerics.Solver.backend}: the engine's
          structure analysis and factorisations run through the shared
          {!Rlc_numerics.Solver.plan}, the same pass the DC, AC and
          PRIMA paths use. *)

type probe =
  | Node_v of Netlist.node  (** node voltage *)
  | Branch_i of string  (** current through the named element;
      supported for RL branches, resistors, capacitors, voltage
      sources and the output stage of inverters *)

type result

type structure = private {
  plan : Rlc_numerics.Solver.plan;
      (** ordering + backend choice over the companion-model pattern *)
  symbolic : Rlc_numerics.Solver.symbolic option;
      (** the sparse symbolic analysis of the companion matrix, once a
          run on a sparse plan has factorised it *)
}
(** The companion system's structure analysis, shared by every run of
    a structural family (equal {!Netlist.structural_signature}).
    Immutable — safe to share across {!Rlc_parallel.Pool} domains.
    {!structure_plan} builds one without a symbolic; a run's
    {!final_structure} carries the symbolic it factorised with. *)

(** Engine configuration as a single record instead of a growing spread
    of optional labels.  Build one with functional record update:

    {[
      let cfg = { Transient.Config.default with backend = Banded;
                  record_every = 10 } in
      Transient.simulate ~config:cfg nl ~t_end ~dt ~probes
    ]} *)
module Config : sig
  type t = {
    integration : integration;  (** fixed-step method (default
        [Trapezoidal]); the first step is always backward Euler *)
    backend : backend;  (** factorisation kernel (default [Auto]) *)
    max_state_iterations : int;  (** inverter fixed-point cap
        (default 8) *)
    record_every : int;  (** sample decimation, fixed-step only
        (default 1) *)
    initial_voltages : (Netlist.node * float) list;
        (** unlisted nodes start at 0 V *)
    rtol : float;  (** adaptive relative tolerance (default 1e-3) *)
    atol : float;  (** adaptive absolute tolerance, volts/amps
        (default 1e-6) *)
    dt_min : float option;  (** adaptive step floor, rounded down to
        the dt_max / 2^k grid, and the size of an adaptive run's
        first three steps (default [dt_max /. 4096.]) *)
    plan_hint : structure option;
        (** a {!structure} of a structurally identical deck (equal
            {!Netlist.structural_signature}), from {!structure_plan}
            or a run's {!final_structure}: skips the engine's
            structure probe and ordering pass, and when it carries a
            symbolic, every factorisation replays it (a numeric
            refactor, no pivot search) instead of the first one
            analysing.  Ignored when its size does not match.  The
            plan is a pure function of the companion structure and a
            replay is numerically the factorisation of its pivot
            sequence, so waveforms are bit-identical with or without
            the hint wherever the value variant's own analysis picks
            the same pivots — it only saves the analysis.  A replay
            that turns unstable re-analyses
            ({!Rlc_numerics.Solver.factor}).  (default [None]) *)
  }

  val default : t
end

val structure_plan : ?backend:backend -> Netlist.t -> structure
(** The engine's structure analysis (RCM/min-degree ordering +
    backend choice over the companion-model pattern) without building
    an engine or factorising — compute once per structural family,
    reuse via [Config.plan_hint].  Its [symbolic] is [None]: the first
    run given it discovers the symbolic, and its {!final_structure}
    carries it.  Note the companion system's unknown count is
    [nodes - 1 + vsources], distinct from {!Assembly.of_netlist}'s MNA
    plan.  Raises [Invalid_argument] on an empty circuit. *)

val simulate :
  ?config:Config.t ->
  Netlist.t ->
  t_end:float ->
  dt:float ->
  probes:probe list ->
  result
(** Simulate from t = 0 to [t_end] with fixed step [dt].  Unlisted
    initial node voltages start at 0; branch currents start at 0.
    Raises [Invalid_argument] for nonsensical parameters or unknown
    probe names, [Failure] if the MNA matrix is singular. *)

val simulate_adaptive :
  ?config:Config.t ->
  Netlist.t ->
  t_end:float ->
  dt_max:float ->
  probes:probe list ->
  result
(** Variable-step transient with local-truncation-error (LTE) control.
    Each attempted step is one advance: backward Euler for the first
    step, trapezoidal after it, reusing the cached factorisation of
    its dt.

    {b Estimator.}  The trapezoidal LTE of a step of size dt is
    [dt^3/12 * |x'''|].  x''' comes from the third divided difference
    of the new node voltages and the last three accepted ones.  Each
    node's estimate is divided by [atol + rtol * |v|] (v the new
    voltage) and the largest ratio, [err], decides: accept when
    [err <= 1]; otherwise roll back and retry ceil(log2(err)/3) levels
    finer.  After an accepted step with [err < 1/8] dt grows one level
    (doubling dt multiplies the LTE by 8).

    {b Step grid.}  Step sizes are levels on the dt_max / 2^k grid (k
    bounded by [dt_min]), so factorisations are reused; only the final
    partial step reaching exactly [t_end] may leave the grid.  The
    estimator needs three accepted points, so a run starts at the
    finest level, [dt_min], and takes its first three steps there
    unchecked.  A step still over tolerance at [dt_min] is accepted
    and counted in [Stats.forced_accepts].

    {b Tolerance semantics.}  [rtol] and [atol] bound each accepted
    step's own local error estimate, with no safety factor; global
    error is what those local errors accumulate to.  This is looser
    than step doubling, which compares one dt step with two dt/2
    steps and keeps the more accurate half-step state, so its
    tolerance bounds that state's error about 3x conservatively.  On
    the repository benchmark's ladders (benchmark/, transient-ladder)
    this controller runs 2.7x faster than step doubling with a worst
    error of 1.4% of swing against a fine fixed-step reference, where
    step doubling reached 0.7%.  Scaling the estimate by 3 would bring
    the error back to 0.8% but cut the speed-up to 1.6x, so it is not
    done.

    The result's time axis is non-uniform;
    [(stats r).Stats.rejected_steps] counts error-control rollbacks. *)

val time : result -> float array

val get : result -> probe -> Rlc_waveform.Waveform.t
(** Waveform of a probe that was requested in the run; raises
    [Not_found] otherwise. *)

val final_voltages : result -> float array
(** Node voltages at [t_end] (index = node id). *)

val steps_taken : result -> int

val final_structure : result -> structure
(** The companion structure the run ended with.  It is the
    [Config.plan_hint] itself (physically) when the run used the hint
    and every factorisation replayed its symbolic, or found none to
    discover (dense and banded plans); otherwise a new value with the
    run's plan and the symbolic of its last analysis — the first one
    on a hint without a symbolic, or a repivot's.  A cache compares
    it physically with the hint it gave to know when to store it. *)

(** Per-run work/diagnostic counters, as one record.  The same numbers
    are also published to the {!Rlc_instr.Metrics} registry
    ([transient.steps], [transient.rejected_steps],
    [transient.forced_accepts], [transient.nonconverged_steps];
    factorisations appear as
    [transient.lu_cache.miss]) at the end of every driver run. *)
module Stats : sig
  type t = {
    steps : int;  (** accepted steps *)
    rejected_steps : int;
        (** error-control rollbacks (adaptive only; 0 for fixed-step) *)
    forced_accepts : int;
        (** adaptive steps accepted over tolerance because dt was
            already at [dt_min] (0 for fixed-step) *)
    nonconverged_steps : int;
        (** steps whose inverter fixed point was still changing when
            [max_state_iterations] ran out; the committed state is the
            consistent (solution, logic-trial) pair that produced the
            last solve, and this counter is the diagnostic that it
            happened *)
    lu_factorizations : int;
        (** distinct (method, dt) factorisations built during the run
            — the observable for LU-cache reuse: a fixed-step
            trapezoidal run costs exactly 2 (backward-Euler first step
            + trapezoidal rest), and an adaptive run stays within a
            couple per dt level *)
  }
end

val stats : result -> Stats.t

val state_iteration_histogram : result -> int array
(** [h.(i)] counts steps that needed [i+1] fixed-point passes —
    diagnostic for the inverter switching resolution. *)
