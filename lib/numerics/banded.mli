(** Banded linear systems: band storage, banded LU with partial
    pivoting (LAPACK [dgbtrf]-style), and solves.

    A matrix with [kl] subdiagonals and [ku] superdiagonals is held in
    the classic band layout with [kl] extra workspace superdiagonals so
    that row pivoting never falls outside the storage.  For the
    ladder-structured MNA systems of the transient engine ([kl], [ku]
    of 2-3 regardless of length) this turns the per-factorisation cost
    from O(m^3) into O(m·kl·(kl+ku)) and the per-step solve from
    O(m^2) into O(m·(kl+ku)). *)

type storage
(** An m x m banded matrix being assembled (mutable). *)

type t
(** A pivoted banded factorisation, ready to solve. *)

exception Singular
(** Raised when a pivot falls below the singularity threshold; the
    same exception as {!Solver.Singular}. *)

(** {1 Band geometry (shared with {!Cbanded})} *)

type geometry = private {
  n : int;  (** order *)
  kl : int;  (** subdiagonals *)
  ku : int;  (** superdiagonals *)
  ldab : int;  (** column height, [2*kl + ku + 1] *)
}
(** LAPACK general-band layout: column [j] is contiguous and entry
    [(i, j)] lives at {!idx}; the top [kl] rows of each column are
    workspace for the fill-in of row pivoting. *)

val geometry : who:string -> n:int -> kl:int -> ku:int -> geometry
(** Raises [Invalid_argument] (message prefixed [who ^ ".create_storage"])
    when [n <= 0], a bandwidth is negative, or a bandwidth is [>= n]. *)

val idx : geometry -> int -> int -> int
(** Array offset of entry [(i, j)]. *)

val in_band : geometry -> int -> int -> bool

val check_bounds : who:string -> geometry -> int -> int -> unit
(** Raises [Invalid_argument] outside the [n] x [n] bounds. *)

val band_idx : who:string -> geometry -> int -> int -> int
(** {!idx} of an entry that must lie in the band: {!check_bounds},
    then raises [Invalid_argument] for an entry strictly outside the
    declared band.  One call per stamp on the assembly path. *)

(** {1 Real band storage} *)

val create_storage : n:int -> kl:int -> ku:int -> storage
(** Zero matrix of order [n] with [kl] sub- and [ku] superdiagonals.
    Raises [Invalid_argument] when [n <= 0], a bandwidth is negative,
    or a bandwidth is [>= n]. *)

val storage_n : storage -> int
val storage_kl : storage -> int
val storage_ku : storage -> int

val get : storage -> int -> int -> float
(** [get s i j] is the (i,j) entry; entries outside the band are 0.
    Raises [Invalid_argument] out of the n x n bounds. *)

val set : storage -> int -> int -> float -> unit
val add_to : storage -> int -> int -> float -> unit
(** Write / accumulate inside the band.  Raise [Invalid_argument] for
    an entry strictly outside the declared band. *)

val to_dense : storage -> Matrix.t

val bandwidth : Matrix.t -> int * int
(** [(kl, ku)] of the nonzero pattern of a square dense matrix:
    the largest sub- and superdiagonal holding a nonzero (0, 0 for a
    diagonal or zero matrix). *)

val of_matrix : ?kl:int -> ?ku:int -> Matrix.t -> storage
(** Band copy of a square dense matrix.  Bandwidths default to the
    detected ones; raises [Invalid_argument] when a given bandwidth is
    smaller than a detected nonzero. *)

val decompose : ?pivot_tol:float -> storage -> t
(** Banded LU with partial (row) pivoting.  The storage is consumed:
    it is factorised in place and must not be reused.  Raises
    {!Singular} when a pivot column is below [pivot_tol] in absolute
    value (default 1e-300, i.e. only exact breakdown). *)

val solve : t -> float array -> float array
(** [solve f b] solves [A x = b] (fresh result array). *)

val solve_into : t -> b:float array -> x:float array -> unit
(** Allocation-free solve: reads [b], writes the solution into [x].
    [b] and [x] may be the same array.  Raises [Invalid_argument] on a
    length mismatch. *)

val size : t -> int
val kl : t -> int
val ku : t -> int
