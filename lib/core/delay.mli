(** Numerical solution of the paper's delay equation (3):

    1 - f - s2/(s2 - s1) exp(s1 tau) + s1/(s2 - s1) exp(s2 tau) = 0

    i.e. the first time the step response reaches the fraction [f] of
    the final value.  The solver brackets the first crossing on an
    expanding grid (the response may cross the level several times when
    underdamped), then polishes with safeguarded Newton — matching the
    paper's "< 4 Newton iterations" efficiency claim. *)

exception No_delay
(** Raised when the response never reaches the level — cannot happen
    for a stable stage with f < 1 but guards against misuse. *)

val of_coeffs : ?f:float -> Pade.coeffs -> float
(** [of_coeffs ~f cs] is the f*100% delay tau, seconds.  [f] defaults
    to 0.5 (the 50% delay used throughout the paper's results).
    Requires 0 < f < 1. *)

val of_coeffs_near : ?f:float -> Pade.coeffs -> seed:float -> float
(** The same first crossing as {!of_coeffs}, found from an estimate
    [seed] of it (e.g. the delay of a nearby stage): bracketed Newton
    on [0.75 seed, min(1.25 seed, first peak time)], where the response
    rises monotonically.  When that interval does not bracket the
    level, it falls back to {!of_coeffs}'s search from t = 0. *)

val of_stage : ?f:float -> Stage.t -> float

val per_unit_length : ?f:float -> Stage.t -> float
(** tau / h — the objective the paper minimizes (Section 2.2). *)

val elmore_agreement : Stage.t -> float
(** tau_50%(l) / tau_50%(l := 0): how much the inductance-aware delay
    deviates from the pure-RC delay of the same stage; 1.0 means Elmore
    optimization remains valid. *)
