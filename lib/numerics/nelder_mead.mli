(** Nelder-Mead downhill-simplex minimization.

    Serves as the derivative-free cross-check of the paper's Newton
    optimizer: both must land on the same (h, k) minimizing the delay
    per unit length, which the test suite asserts. *)

type result = {
  x : float array;  (** best vertex *)
  fx : float;  (** objective at [x] *)
  iterations : int;
  converged : bool;
}

val minimize_ctx :
  ?max_iter:int ->
  ?ftol:float ->
  ?xtol:float ->
  ?initial_step:float ->
  ctx:'a ->
  f:('a -> float array -> float) ->
  x0:float array ->
  unit ->
  result
(** [minimize_ctx ~ctx ~f ~x0 ()] runs the standard reflect / expand /
    contract / shrink iteration from a simplex built around [x0] with
    relative size [initial_step] (default 0.05), passing [ctx] — an
    evaluation workspace built once — to every objective call.
    Convergence requires both the spread of objective values
    ([ftol], default 1e-12, relative) and of vertices ([xtol], default
    1e-10, relative) to collapse.  Objective values of [nan] are
    treated as +infinity, so the objective may simply reject invalid
    regions. *)
