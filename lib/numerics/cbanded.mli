(** Complex banded linear systems: the complex twin of {!Banded}.

    Same LAPACK general-band layout ([zgbtrf]-style): a matrix with
    [kl] subdiagonals and [ku] superdiagonals is stored column-major
    with [kl] extra workspace superdiagonals so that partial (row)
    pivoting never falls outside the storage.  Entries are kept as
    split real/imaginary float arrays, so assembling and factoring an
    n-unknown system with half-bandwidths (kl, ku) allocates no
    per-entry boxes and costs O(n·kl·(kl+ku)) — the kernel behind the
    O(n·b^2) per-frequency AC solves of {!Rlc_circuit.Ac}.  The band
    geometry and its checks are {!Banded}'s. *)

type storage
(** An n x n complex banded matrix being assembled (mutable). *)

type t
(** A pivoted complex banded factorisation, ready to solve. *)

exception Singular
(** Raised when a pivot falls below the singularity threshold; the
    same exception as {!Solver.Singular}. *)

val create_storage : n:int -> kl:int -> ku:int -> storage
(** Zero matrix of order [n] with [kl] sub- and [ku] superdiagonals.
    Raises [Invalid_argument] when [n <= 0], a bandwidth is negative,
    or a bandwidth is [>= n]. *)

val storage_n : storage -> int
val storage_kl : storage -> int
val storage_ku : storage -> int

val get : storage -> int -> int -> Cx.t
(** [get s i j] is the (i,j) entry; entries outside the band are 0.
    Raises [Invalid_argument] out of the n x n bounds. *)

val set : storage -> int -> int -> Cx.t -> unit

val add_to : storage -> int -> int -> Cx.t -> unit
(** Write / accumulate inside the band.  Raise [Invalid_argument] for
    an entry strictly outside the declared band. *)

val to_dense : storage -> Cmatrix.t

val decompose : ?pivot_tol:float -> storage -> t
(** Banded LU with partial (row) pivoting by modulus.  The storage is
    consumed: it is factorised in place and must not be reused.
    Raises {!Singular} when a pivot column is below [pivot_tol] in
    modulus (default 1e-300, i.e. only exact breakdown). *)

val solve : t -> Cx.t array -> Cx.t array
(** [solve f b] solves [A x = b] (fresh result array).  Raises
    [Invalid_argument] on a length mismatch. *)

val solve_into : t -> b:Cx.t array -> x:Cx.t array -> unit
(** Solve reading [b] and writing into [x]; [b] and [x] may be the
    same array.  Raises [Invalid_argument] on a length mismatch. *)

val size : t -> int
val kl : t -> int
val ku : t -> int
