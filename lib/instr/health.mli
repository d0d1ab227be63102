(** Numerical-health classification over the probes in [lib/numerics].

    Factorisation kernels report cheap by-products — a pivot-growth
    estimate (max magnitude after elimination over max before; large
    growth means digits were lost) and a reciprocal-condition proxy
    (smallest over largest U-diagonal magnitude) — and every
    fallback / singular path reports a reason.  Each solve is
    classified {!Ok}, {!Degraded} (returned numbers, but growth beyond
    the repivot limit or rcond within a few digits of underflow) or
    {!Failed} (raised), counted in the [health.*] metrics, observed
    into the [health.pivot_growth] / [health.rcond] histograms, and —
    when {!Journal.capturing} — journaled as a [health] event carrying
    the current provenance id. *)

type classification = Ok | Degraded | Failed

val to_string : classification -> string
val of_string : string -> classification option

val worst : classification -> classification -> classification

val growth_limit : float
(** Degraded above this pivot growth (1e8, the sparse repivot limit). *)

val rcond_limit : float
(** Degraded below this reciprocal-condition estimate (1e-12). *)

val classify :
  ?growth:float -> ?rcond:float -> unit -> classification
(** Pure threshold check — never {!Failed} (a solve that returned is
    at worst degraded). *)

val observe :
  kind:string -> ?growth:float -> ?rcond:float -> unit -> classification
(** Record one completed solve of the given kind (["lu"], ["banded"],
    ["sparse"], ...): histograms + class counter + a journal event
    when not {!Ok}.  Callers should skip computing the estimates
    (and this call) unless {!Metrics.recording}. *)

val observe_factor :
  kind:string -> amax:float -> umax:float -> dmin:float -> dmax:float -> unit
(** The factorisation kernels' probe: {!observe} with growth = [umax]
    / [amax] (max entry modulus of the factors over that of the input;
    1 when [amax] = 0) and rcond = [dmin] / [dmax] (smallest over
    largest U-diagonal modulus; 0 when [dmax] = 0).  Each kernel
    computes its own moduli, only while {!Metrics.recording}. *)

val degraded : kind:string -> reason:string -> unit
(** A solve that fell back or tripped a guard but completed. *)

val failure : kind:string -> reason:string -> unit
(** A solve that raised (singular system). Call before raising. *)

(** {1 Summary (quiescent points only)} *)

type report = {
  solves : int;
  ok : int;
  degraded : int;
  failed : int;
  worst_growth : float option;
  min_rcond : float option;
}

val report : unit -> report
val pp_report : Format.formatter -> report -> unit

val worst_for :
  Journal.event list ->
  provenance:string ->
  (classification * string) option
(** Worst health classification (and its reason) among the [health]
    events stamped with the given provenance id — what the serving
    layer appends as the [# health:] annotation on [err] results. *)
