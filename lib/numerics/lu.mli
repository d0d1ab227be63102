(** LU decomposition with partial pivoting, and the linear-system /
    determinant / inverse operations built on it.

    This is the workhorse behind both the 2x2 optimizer Newton steps
    and the MNA matrices of the transient circuit simulator. *)

type t
(** A factorisation [P*A = L*U] of a square matrix [A]. *)

exception Singular
(** Raised when a pivot falls below the singularity threshold.  The
    one factor-failure exception of the library: {!Clu}, {!Banded},
    {!Cbanded}, {!Sparse} and {!Solver} re-export it, so a caller
    catches {!Solver.Singular} whichever kernel ran. *)

val decompose : ?pivot_tol:float -> Matrix.t -> t
(** [decompose a] factorises square [a].  Raises [Singular] when the
    matrix is numerically singular ([pivot_tol] defaults to 1e-300,
    i.e. only exact breakdown), [Invalid_argument] when not square. *)

val solve : t -> float array -> float array
(** [solve lu b] solves [A x = b]. *)

val solve_into : t -> b:float array -> x:float array -> unit
(** Allocation-free [solve]: reads [b], writes the solution into the
    preallocated [x].  The two arrays must be distinct (the initial
    permutation reads [b] out of order).  Raises [Invalid_argument] on
    a length mismatch or aliased arrays. *)

val solve_matrix : ?pivot_tol:float -> Matrix.t -> float array -> float array
(** One-shot [decompose] + [solve]. *)

val det : t -> float
val inverse : t -> Matrix.t
val size : t -> int

val probe_factor :
  kind:string ->
  int ->
  input:(int -> int -> float) ->
  factor:(int -> int -> float) ->
  unit
(** The dense health probe, shared with {!Clu}: reports a factor of
    order [n] to {!Rlc_instr.Health.observe_factor}, reading entry
    moduli of the input ([input i j]) and of the combined L\U storage
    ([factor i j]).  Callers run it only while
    {!Rlc_instr.Metrics.recording}. *)
