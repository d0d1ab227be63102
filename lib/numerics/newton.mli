(** Damped multi-dimensional Newton iteration on a residual
    [f : R^n -> R^n].

    This drives the paper's optimizer: the two residuals (g1, g2) of
    equations (7)-(8) are driven to zero in the (h, k) plane.  The
    implementation damps steps with a backtracking line search on
    ||f||^2 and optionally clamps iterates to a box, which keeps the
    iteration away from the unphysical h <= 0 / k <= 0 region. *)

type result = {
  x : float array;  (** solution estimate *)
  residual_norm : float;  (** euclidean norm of f at [x] *)
  iterations : int;
  converged : bool;
}

val solve_ctx :
  ?max_iter:int ->
  ?tol:float ->
  ?jacobian:('a -> float array -> Matrix.t) ->
  ?lower:float array ->
  ?upper:float array ->
  ctx:'a ->
  f:('a -> float array -> float array) ->
  x0:float array ->
  unit ->
  result
(** [solve_ctx ~ctx ~f ~x0 ()] iterates from [x0], passing [ctx] — an
    evaluation workspace built once — to every residual and Jacobian
    call.  The Jacobian is requested only at the iterate whose residual
    was evaluated last, so a workspace may cache what the residual
    computed and let the Jacobian reuse it.  Convergence is declared
    when the residual norm falls below [tol] (default 1e-10) relative
    to the initial residual, or absolutely below [tol].  When [jacobian] is omitted a central
    finite-difference Jacobian is used.  [lower] / [upper] clamp every
    iterate componentwise. *)
