(** Deterministic domain-parallel execution for embarrassingly parallel
    fan-outs (sweep points, Monte-Carlo samples, corners, bench cases).

    A pool is a *capacity*, not a set of live threads: each [map] /
    [map_reduce] call spawns up to [domains - 1] short-lived
    domains (the calling domain always works too) and joins them before
    returning.  Results are written into a preallocated slot array by
    index, so the output is bit-identical regardless of the domain
    count, the chunk size or the scheduling — parallelism never changes
    a single float.  With [domains = 1], or whenever [Domain.spawn]
    fails (domain limit reached, resource exhaustion), execution falls
    back to plain sequential code with zero dependencies on the
    runtime's multicore state.

    The worker function must be safe to call from multiple domains at
    once: pure, or touching only domain-local state.  Everything in
    this repository's numeric layers qualifies (the engines mutate only
    buffers they allocated themselves). *)

type t

val default_domains : unit -> int
(** The [RLC_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]; clamped to
    [\[1, 128\]]. *)

val create : ?domains:int -> unit -> t
(** A pool of the given capacity (default {!default_domains}).
    Raises [Invalid_argument] if [domains < 1]. *)

val sequential : t
(** The capacity-1 pool: every operation runs inline. *)

val domains : t -> int

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [Array.map f xs], computed by up to
    [domains pool] domains.  Work is handed out in contiguous chunks of
    [chunk] indices (default [max 1 (n / (4 * domains))]) through an
    atomic cursor; each result lands in slot [i] of the output, so the
    result is independent of scheduling.  If any [f x] raises, one of
    the raised exceptions (the first one observed) is re-raised in the
    caller after all domains have stopped.
    Raises [Invalid_argument] if [chunk < 1]. *)

val mapi : ?chunk:int -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] for lists (converts through an array internally; order
    preserved). *)

val map_reduce :
  ?chunk:int -> t -> map:('a -> 'b) -> reduce:('b -> 'b -> 'b) ->
  init:'b -> 'a array -> 'b
(** Parallel map into slots, then a *sequential* left fold
    [reduce (... (reduce init y0) ...) y_{n-1}] in index order — the
    fold order is fixed, so non-associative float reductions are still
    deterministic. *)
