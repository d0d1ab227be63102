(** General sparse LU (Gilbert-Peierls left-looking, threshold partial
    pivoting with diagonal preference) with the symbolic analysis split
    out for reuse.

    This is the third {!Solver} backend, the one that scales to 2-D
    structures: on an m x n mesh the banded kernel after RCM does
    O(n^2) work because the band grows like sqrt(n), while sparse LU
    under a fill-reducing ordering ({!Mindeg}) stays near
    O(n^{1.5}).

    The API splits the work the way the callers amortise it:

    - {!factor} / {!cfactor}: discover the column patterns and the
      pivot sequence — the symbolic analysis — while computing the
      first numeric factorisation.
    - {!refactor} / {!crefactor}: replay a recorded analysis against
      new values in the same stamped pattern — no graph traversal, no
      pivot search.  Numerically identical to what {!factor} would
      produce with the same pivot sequence.  An AC sweep analyses once
      and refactors per frequency; the transient engine analyses once
      and refactors per (method, dt).
    - {!solve_into} / {!csolve_into}: allocation-free triangular
      solves.

    The symbolic side ({!symbolic}, shared by real and complex
    factors of the same pattern family) is immutable once built, so a
    value analysed before a {!Rlc_parallel.Pool} fan-out can be read
    concurrently from every domain.

    Pivoting: within each column the pivot is the not-yet-pivotal row
    of largest magnitude, except that the diagonal is kept whenever it
    is within [pivot_tol] (default 0.001) of that maximum — MNA
    matrices have structurally zero diagonals on source/branch rows
    (so some off-diagonal pivoting is unavoidable) but near-diagonal
    pivoting preserves the fill the ordering bought.  A replayed pivot
    can go bad on values far from the analysed ones: {!refactor}
    monitors multiplier growth and raises {!Repivot} so the caller can
    fall back to a fresh analysis. *)

exception Singular
(** A column ran out of candidate pivots (structural singularity) or
    the best candidate is numerically zero / non-finite; the same
    exception as {!Solver.Singular}. *)

exception Repivot
(** Raised by {!refactor} / {!crefactor} when the recorded pivot
    sequence is unstable for the new values (zero pivot or multiplier
    growth beyond [growth_limit]); re-analyse with {!factor}. *)

(** {1 Symbolic analysis} *)

type symbolic
(** Column patterns of L and U plus the pivot sequence — everything
    value-independent about a factorisation.  Immutable; safe to share
    across domains. *)

val sym_n : symbolic -> int
val sym_lu_nnz : symbolic -> int
(** Nonzeros of L + U (unit diagonal of L not counted, diagonal of U
    counted) — the fill the ordering achieved. *)

(** {1 Compressed-column inputs} *)

type csc
(** A real matrix in compressed-column form with duplicates already
    accumulated. *)

type ccsc
(** Complex twin of {!csc} (split re/im storage). *)

val of_fill :
  ?like:symbolic -> n:int -> ((int -> int -> float -> unit) -> unit) -> csc
(** [of_fill ~n fill] assembles an [n] x [n] matrix: [fill] is called
    once with an [add i j v] accumulator (duplicate (i,j) stamps
    accumulate).  The column patterns keep first-stamp order, so the
    pattern is a pure function of the stamp sequence — stamping the
    same structure again yields the byte-identical pattern
    {!refactor} requires.  When [like]'s analysed input was stamped in
    the same (i, j) sequence, its compressed layout is reused and only
    the values are accumulated (the same sums, in the same order).
    Raises [Invalid_argument] on [n <= 0] or an out-of-range index. *)

val cof_fill :
  ?like:symbolic -> n:int -> ((int -> int -> Cx.t -> unit) -> unit) -> ccsc
(** Complex twin of {!of_fill}. *)

val nnz : csc -> int
val cnnz : ccsc -> int

(** {1 Real factorisation} *)

type t
(** A numeric factorisation [P A = L U]. *)

val factor : ?pivot_tol:float -> csc -> t
(** Symbolic analysis + first numeric factorisation.  Raises
    {!Singular}. *)

val refactor : ?growth_limit:float -> symbolic -> csc -> t
(** [refactor sym a] replays [sym]'s pattern and pivot sequence
    against the values of [a] (which must carry the same pattern the
    analysis saw — guaranteed when it came from the same stamp
    sequence; a cheap nnz check guards the rest).  Raises {!Repivot}
    when the replayed sequence is unstable ([growth_limit] defaults to
    1e8), {!Singular} on non-finite values, [Invalid_argument] on a
    pattern size mismatch. *)

val symbolic : t -> symbolic
val lu_nnz : t -> int

val solve_into : t -> b:float array -> x:float array -> unit
(** Allocation-free solve of [A x = b]; [b] and [x] must be distinct
    (the row permutation reads [b] out of order).  Raises
    [Invalid_argument] on length mismatch or aliasing. *)

(** {1 Complex factorisation} *)

type ct

val cfactor : ?pivot_tol:float -> ccsc -> ct
val crefactor : ?growth_limit:float -> symbolic -> ccsc -> ct
val csymbolic : ct -> symbolic
val clu_nnz : ct -> int
val csolve_into : ct -> b:Cx.t array -> x:Cx.t array -> unit
