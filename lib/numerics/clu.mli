(** Complex LU factorisation with partial pivoting — the solver behind
    the AC engine's per-frequency [(G + jwC) x = b] systems and the
    reduced-model transfer evaluations of [Rlc_mor].

    Mirrors {!Lu} over {!Cmatrix}; pivots are chosen by complex
    modulus.  Like {!Lu} it reports a health probe while recording
    and a [clu] health failure before raising. *)

type t

exception Singular
(** Raised when the best remaining pivot's modulus falls below the
    threshold; the same exception as {!Solver.Singular}. *)

val decompose : ?pivot_tol:float -> Cmatrix.t -> t
(** Doolittle factorisation of a square matrix.  Raises
    [Invalid_argument] on a non-square input and {!Singular} on
    breakdown ([pivot_tol] defaults to 1e-300, i.e. only exact
    breakdown). *)

val size : t -> int

val solve : t -> Cx.t array -> Cx.t array
(** Fresh solution array; raises [Invalid_argument] on a length
    mismatch. *)

val solve_into : t -> b:Cx.t array -> x:Cx.t array -> unit
(** Allocation-free solve into [x]; [b] and [x] must be distinct. *)

val solve_matrix : ?pivot_tol:float -> Cmatrix.t -> Cx.t array -> Cx.t array
(** One-shot [decompose] + [solve]. *)
