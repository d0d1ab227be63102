(** Pluggable direct-solver backends behind one structure-analysis
    pass.

    Every sparse consumer in the repository — the transient engine's
    per-(method, dt) factorisations, the DC operating point, the AC
    per-frequency complex solves and PRIMA's Krylov G-solves — faces
    the same choice, made once by {!plan}: reorder the unknowns,
    measure what the stamped structure costs under each kernel, and
    settle on one of three backends.  Chain-structured systems
    (ladders, buses) get reverse Cuthill-McKee plus the banded kernel;
    2-D structures (PDN grids, clock meshes), where the RCM band grows
    like sqrt(n) and banded work degrades to O(n^2), get a min-degree
    ordering ({!Mindeg}) plus general sparse LU ({!Sparse}); small
    systems stay dense.  {!factor} / {!cfactor} materialise a real or
    complex system through a stamping callback into whichever storage
    the plan selected, hiding the three-way split behind one factor
    type.

    The sparse backend splits symbolic analysis from numeric
    factorisation: {!factor} / {!cfactor} given [?symbolic] replay a
    previous factor's analysis (pattern + pivot sequence) against new
    values in the same stamped structure, which is what an AC sweep
    does per frequency and the transient engine per (method, dt).  An
    unstable replay falls back to a fresh analysis transparently
    (counted on [solver.sparse.repivot]). *)

exception Singular
(** Numerical breakdown of whichever kernel the plan chose — the one
    factor-failure exception, {!Lu.Singular}, which {!Clu}, {!Banded},
    {!Cbanded} and {!Sparse} re-export too. *)

type backend =
  | Auto
      (** cost-model choice: banded for narrow bands, sparse when the
          predicted min-degree fill beats the predicted banded work,
          dense for small systems *)
  | Dense  (** force dense LU *)
  | Banded  (** force the banded kernel (RCM ordered) *)
  | Sparse  (** force general sparse LU (min-degree ordered) *)

type choice = Dense_lu | Banded_lu | Sparse_lu
(** What a plan settled on. *)

type plan = private {
  n : int;  (** unknown count *)
  perm : int array;
      (** unknown index -> position: RCM (bandwidth-minimising) for
          the dense/banded choices, min-degree (fill-minimising) for
          sparse *)
  kl : int;  (** sub-bandwidth the stamps achieve under [perm] *)
  ku : int;  (** super-bandwidth under [perm] *)
  choice : choice;  (** the backend the plan settled on *)
  sparse_flops : float;
      (** the cost model's work estimate for the sparse backend (0
          unless [choice = Sparse_lu]) *)
}

val banded_pays : n:int -> kl:int -> ku:int -> bool
(** The banded-versus-dense half of the [Auto] choice: banded when the
    band occupies at most a third of the matrix and the system is big
    enough ([n >= 12]) for the bookkeeping to pay off.  On narrow
    bands (chain structure) this is the whole decision; on wide bands
    the cost model also weighs the sparse backend. *)

val plan : ?backend:backend -> int list array -> plan
(** [plan adj] analyses the nonzero structure given as an undirected
    adjacency (vertex [u]'s neighbour list at index [u]; self-loops
    ignored, symmetry assumed — the shape {!Rcm.permutation} takes)
    and picks the backend ([Auto] by default).  Deterministic: the
    plan is a pure function of [adj] and [backend].  Raises
    [Invalid_argument] on an empty adjacency. *)

type factor
(** A factorised real system, dense, banded or sparse per the plan. *)

type symbolic
(** The value-independent part of a *sparse* factorisation (column
    patterns + pivot sequence).  Immutable — safe to share across
    {!Rlc_parallel.Pool} domains. *)

val factor :
  ?symbolic:symbolic ->
  plan ->
  fill:((int -> int -> float -> unit) -> unit) ->
  factor
(** [factor p ~fill] assembles and factorises a real matrix.  [fill]
    is called once with an [add i j v] accumulator taking *natural*
    (unpermuted) indices; the plan's permutation is applied inside.
    Banded assembly requires every stamped (i,j) to satisfy the plan's
    bandwidth — guaranteed when [fill] stamps the structure the plan
    was built from.

    On a sparse plan, [?symbolic] replays a previous analysis: the
    recorded pattern and pivot sequence are applied to the new values
    (no graph search, no pivot search), and [fill] must stamp the same
    structure the analysis saw.  When the replay is numerically
    unstable the call falls back to a fresh analysis (counter
    [solver.sparse.repivot], a [solver.fallback] journal event and a
    degraded health note).  Dense and banded plans ignore it.  Raises
    {!Singular} on numerical breakdown. *)

val symbolic_of : factor -> symbolic option
(** The reusable analysis of a sparse factor ([None] for dense and
    banded factors). *)

val solve_permuted_into : factor -> b:float array -> x:float array -> unit
(** Allocation-free solve in *permuted* coordinates ([b] and [x] may
    alias for the banded backend; for dense and sparse they must
    differ — pass distinct buffers to be backend-agnostic).  The
    hot-path entry for callers that keep their vectors permuted, like
    the transient engine. *)

type scratch
(** Caller-owned buffers for {!solve_into} — one allocation reused
    across calls instead of three per solve. *)

val scratch : plan -> scratch

val solve_into :
  plan -> factor -> scratch -> b:float array -> x:float array -> unit
(** Solve in natural coordinates into a caller-owned [x]; [b] and [x]
    may alias (the permuted copy in [scratch] decouples them).  Raises
    [Invalid_argument] on a length mismatch or a scratch built for a
    different size. *)

val solve : plan -> factor -> float array -> float array
(** Solve in natural coordinates: permutes the RHS, solves, and
    un-permutes the solution (fresh array). *)

type cfactor
(** A factorised complex system, dense, banded or sparse per the
    plan. *)

val cfactor :
  ?symbolic:symbolic ->
  plan ->
  fill:((int -> int -> Cx.t -> unit) -> unit) ->
  cfactor
(** Complex twin of {!factor}: assembles [G + sC]-shaped systems into
    {!Cbanded} storage, a dense {!Cmatrix} or complex sparse CSC and
    factorises; [?symbolic] is the per-frequency replay of an AC sweep
    that analysed once at a reference frequency.  Raises {!Singular}. *)

val csymbolic_of : cfactor -> symbolic option

type cscratch

val cscratch : plan -> cscratch

val csolve_into :
  plan -> cfactor -> cscratch -> b:Cx.t array -> x:Cx.t array -> unit
(** Complex twin of {!solve_into} ([b] and [x] may alias). *)

val csolve : plan -> cfactor -> Cx.t array -> Cx.t array
(** Complex solve in natural coordinates (fresh array). *)
