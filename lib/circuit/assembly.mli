(** The one stamping layer: a netlist compiled once into a sparse
    triplet (COO) stamp IR, from which every analysis materialises the
    system it needs.

    Historically the repository stamped the MNA system three separate
    times — dense (G, C, B) matrices for the frequency domain, a
    private dense stamp inside the DC solver, and a callback-based
    stamp inside the transient engine.  This module replaces all of
    them: {!Coo} is the primitive stamp target (the conductance
    pattern {!Coo.stamp_g} lives here and nowhere else), and
    {!of_netlist} compiles a netlist into the (G, C, B) pattern with
    per-element value slots plus the {!Rlc_numerics.Solver.plan}
    (reverse Cuthill-McKee ordering + bandwidth + backend choice) that
    every consumer shares.  Dense, banded(+RCM) and complex-banded
    instantiations all come from the same IR, so they agree entry for
    entry by construction.

    Unknown ordering matches the classic MNA convention: node voltages
    first (node [k] at index [k - 1], ground eliminated), then one
    branch current per inductive element, then one current per voltage
    source.  Branch equations are stamped in the skew form
    ([-v_a + v_b + R i + sL i = 0] against [+i] incidence in the node
    rows) so that [G + G^T] and [C] stay positive semidefinite — the
    structure PRIMA's congruence projection needs. *)

open Rlc_numerics

(** Sparse triplet (COO) accumulator: the stamp target shared by this
    module (netlist compilation) and the transient engine (companion
    models, whose values depend on the integration method and dt).
    Duplicate (i,j) stamps accumulate into one slot in first-stamp
    order, exactly like stamping into a dense matrix. *)
module Coo : sig
  type t

  val create : size:int -> t
  (** Empty [size] x [size] accumulator.  Raises [Invalid_argument]
      when [size <= 0]. *)

  val size : t -> int

  val nnz : t -> int
  (** Distinct (i,j) slots stamped so far. *)

  val stamp_g : t -> Netlist.node -> Netlist.node -> float -> unit
  (** [stamp_g coo a b v] stamps the two-terminal conductance pattern
      between nodes [a] and [b] (ground rows/columns eliminated):
      [+v] on both diagonals, [-v] on both off-diagonals.  The single
      conductance-stamp implementation in the repository. *)

  val stamp_cross : t ->
    a:Netlist.node -> b:Netlist.node ->
    ma:Netlist.node -> mb:Netlist.node -> float -> unit
  (** Cross-coupling pattern between branch (a,b) and branch (ma,mb)
      — the mutual term of a coupled-RL companion model: [+v] into
      (a,ma) and (b,mb), [-v] into (a,mb) and (b,ma), ground
      eliminated. *)

  val stamp_at : t -> int -> int -> float -> unit
  (** Accumulate at raw unknown indices (incidence rows, branch
      diagonals).  Raises [Invalid_argument] out of bounds. *)

  val iter : t -> (int -> int -> float -> unit) -> unit
  (** One call per distinct slot with its accumulated value, in
      first-stamp order. *)

  val mul_vec : t -> float array -> float array
  (** [mul_vec coo y] is the fresh product [M y] of the accumulated
      matrix, summed slot by slot in first-stamp order.  The one
      sparse mat-vec the frequency-domain consumers ({!Whatif}'s
      moment recurrence, PRIMA's Krylov step and projections) share. *)

  val reset : t -> unit
  (** Clear every slot's value and keep the pattern and the slot
      index, for a restamp through the same stamp sequence (the
      transient engine's companion at a new dt).  A restamp after
      [reset] accumulates every slot to the bits a fresh accumulator
      would hold, in the same slot order; slots it does not touch read
      [-0.0]. *)

  val adjacency : t -> int list array
  (** The deduplicated undirected adjacency of this accumulator alone
      — the shape {!Rlc_numerics.Solver.plan} consumes. *)

  val to_dense : t -> Matrix.t
end

type source_kind = Voltage | Current

type input = {
  name : string;  (** netlist element name *)
  kind : source_kind;
  stim : Stimulus.t;  (** the deck's waveform, for DC levels *)
}

type t = private {
  size : int;  (** unknown count *)
  n_nodes : int;  (** netlist nodes including ground *)
  n_currents : int;  (** inductor branch-current unknowns *)
  g : Coo.t;  (** conductances + incidence rows *)
  c : Coo.t;  (** capacitances + (mutual) inductances *)
  b_rows : int array;  (** source incidence triplets: rows, *)
  b_cols : int array;  (** input columns, *)
  b_vals : float array;  (** values *)
  inputs : input array;  (** column order of B *)
  current_rows : int array array;
      (** extra MNA rows owned by each element id: the branch-current
          row(s) of an inductive element (one for {!Netlist.element.Rl_branch},
          two for {!Netlist.element.Coupled_rl}) or the current row of
          a voltage source; [[||]] for elements with node unknowns
          only.  This is how a value perturbation finds its O(1) stamp
          positions without re-walking the netlist. *)
  plan : Solver.plan;  (** the shared structure analysis (RCM +
      bandwidth + backend) every consumer reuses *)
}

val of_netlist : ?plan:Solver.plan -> ?validate:bool -> Netlist.t -> t
(** Validates the netlist (see {!Netlist.validate}) and compiles the
    stamp IR.  A source-free netlist (e.g. a latch of inverters,
    solved for its DC point) is accepted — the frequency-domain
    consumers refuse it through {!probe} — and only an empty system
    raises [Invalid_argument].

    [?plan] substitutes a previously computed structure analysis for
    the fresh [Solver.plan] call — sound only when it was built from a
    deck with the same {!Netlist.structural_signature} (the serving
    layer's compiled-deck cache guarantees this); a size mismatch
    raises [Invalid_argument], any deeper mismatch is on the caller.
    [?validate:false] skips {!Netlist.validate} for the same
    signature-match reason: topological validity is a structural
    property, so revalidating a value-only variant buys nothing. *)

val adjacency : t -> int list array
(** The sorted, deduplicated union pattern of G and C: the input of
    {!Rlc_numerics.Solver.plan}.  Built on each call ({!of_netlist}
    builds it only when it computes the plan itself). *)

val dense_g : t -> Matrix.t
val dense_c : t -> Matrix.t
(** Dense materialisations of the IR (entry-identical to stamping the
    elements straight into a dense matrix) — test references only; no
    analysis works on them. *)

val b_column : t -> int -> float array
(** Column of B for one input.  Raises [Invalid_argument] on a bad
    index. *)

val iter_b : t -> (int -> int -> float -> unit) -> unit
(** The B triplets: [f row input_column value]. *)

val cfill : t -> Cx.t -> (int -> int -> Cx.t -> unit) -> unit
(** [cfill t s add] streams the entries of [G + sC] through [add] in
    natural coordinates — the fill callback shape
    {!Rlc_numerics.Solver.cfactor} consumes.  Exposed so
    incremental consumers ({!Whatif}) can append their own delta
    stamps to the base pattern under one factorisation. *)

val probe : ctx:string -> t -> Netlist.node -> int
(** [probe ~ctx t node] is the unknown index of [node]'s voltage in a
    transfer function driven by the deck's first source (B column 0),
    the convention of {!Ac.bode}, [Rlc_mor.Prima.reduce] and the
    {!Whatif} targets.  Raises [Invalid_argument] prefixed by [ctx]
    on ground, an out-of-range node or a source-free deck. *)

val factor_g : ?symbolic:Solver.symbolic -> t -> Solver.factor
(** Factor G under the shared plan (banded + RCM when the band is
    narrow).  On the sparse backend [?symbolic] replays a previous
    analysis of the same G pattern (value-only restamps go straight to
    numeric refactor; see {!Rlc_numerics.Solver.factor}).  Raises
    {!Rlc_numerics.Solver.Singular}. *)

val solve_g : t -> Solver.factor -> float array -> float array
(** Solve [G x = b] in natural unknown order with a {!factor_g}
    factor. *)

val solve_complex : ?backend:Solver.backend -> t -> s:Cx.t
  -> rhs:Cx.t array -> Cx.t array
(** One frequency point: assemble [G + sC] in complex banded (RCM
    ordered), sparse (min-degree ordered) or dense form, factor, and
    solve against [rhs].  With the plan's banded backend this costs
    O(n·b^2) per call instead of the O(n^3) of a dense complex LU.
    Allocates its own storage, so concurrent calls from a
    {!Rlc_parallel.Pool} fan-out are safe.  [backend] overrides the
    shared plan's choice (the AC bench times the dense path through
    exactly this override).  Raises {!Rlc_numerics.Solver.Singular}
    at a frequency where the pencil is singular.

    For a *sweep* of frequency points against one assembly, build a
    {!cengine} instead: on the sparse backend it analyses the pattern
    once and refactors per point. *)

type cengine
(** A complex sweep engine: the shared plan plus (on the sparse
    backend) one symbolic analysis taken at a reference frequency and
    replayed at every point.  Immutable — build it before a
    {!Rlc_parallel.Pool} fan-out and share it across domains; that
    also pins the pivot sequence to the reference frequency, keeping
    sweeps deterministic at any domain count. *)

val cengine :
  ?backend:Solver.backend -> ?symbolic:Solver.symbolic -> t ->
  s_ref:Cx.t -> cengine
(** [cengine t ~s_ref] builds the engine, analysing at [s_ref]
    (sweeps pass their first frequency point).  Raises like
    {!solve_complex} when the pencil is singular at [s_ref].
    [?symbolic] adopts a previous engine's analysis instead of
    analysing at [s_ref] (skipping the reference factorisation
    entirely) — sound only for an assembly with the identical stamp
    pattern, i.e. the same {!Netlist.structural_signature}. *)

val cengine_plan : cengine -> Solver.plan

val cengine_symbolic : cengine -> Solver.symbolic option
(** The engine's sparse symbolic analysis ([None] on the dense/banded
    backends) — what a compiled-deck cache stores and feeds back into
    {!cengine}'s [?symbolic]. *)

val cengine_scratch : cengine -> Solver.cscratch
(** Fresh solver scratch sized for this engine — one per domain. *)

val cengine_solve_into :
  cengine -> Solver.cscratch -> s:Cx.t -> rhs:Cx.t array -> x:Cx.t array
  -> unit
(** One frequency point through the engine: assemble [G + sC], factor
    (reusing the engine's symbolic analysis on the sparse backend —
    counted on [solver.sparse.crefactor] instead of [canalyze]) and
    solve [rhs] into caller-owned [x] ([rhs] is read-only, so sharing
    it across domains is safe; [rhs] and [x] may alias). *)

val cengine_solve : cengine -> s:Cx.t -> rhs:Cx.t array -> Cx.t array
(** Allocating convenience wrapper over {!cengine_solve_into}. *)
