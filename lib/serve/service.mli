(** The batch job service: parse {!Protocol} job lines, reuse compiled
    decks through {!Deck_cache}, and execute independent jobs across a
    {!Rlc_parallel.Pool}.

    Each batch runs in three phases:

    + {b prepare} (sequential): parse every line, read and parse its
      deck, probe the cache by structural hash + signature, and — for
      the first job of each structural family and query kind — build
      the shared artifacts (MNA plan, DC / AC sparse symbolic
      analyses).  The transient companion structure is not built
      here: the family's first [tran] or [delay] run hands back the
      one it planned and analysed.
    + {b execute} (parallel): solve each job on the pool, reading the
      immutable cached artifacts.  Every exception is caught and
      becomes that job's [err] result — a bad job never aborts the
      stream.  Results come back slot-indexed, so the output order is
      the input order at any domain count.
    + {b postprocess} (sequential): install the hand-backs — a
      symbolic a job ended with other than the one it was given — in
      the entry slot it was read from, while that slot still holds
      what the job was given; bump counters, and render result lines.
      All cache mutation happens in prepare and postprocess, on the
      coordinating domain.

    {b Determinism.}  Plans are pure functions of structure, and a
    replayed sparse analysis gives the bits a fresh one would wherever
    the variant's own analysis picks the same pivots.  Under that
    condition a cold service and a warm one produce bit-identical
    result streams, as do runs at any [RLC_JOBS] setting and batch
    size.

    {b Cache poisoning visibility.}  When a value-only variant drifts
    far enough that the replayed pivot sequence goes bad,
    {!Rlc_numerics.Solver.factor} silently falls back to a fresh
    analysis (counted on [solver.sparse.repivot]).  The service
    detects the fallback per job — the resulting factor no longer
    shares the cached symbolic — counts it on [serve.cache.resym],
    and hands the fresh symbolic back for the entry, so later
    variants replay the better-conditioned pivots. *)

type config = {
  pool : Rlc_parallel.Pool.t;  (** execution pool; {!default_config}
      uses {!Rlc_parallel.Pool.sequential} *)
  cache_capacity : int;  (** {!Deck_cache.create} capacity
      (default 64; 0 disables caching) *)
  memo_capacity : int;  (** exact-text memo capacity in decks
      (default 512; 0 disables the memo).  The memo is the second
      cache level: keyed on the deck's exact bytes, it lets a
      byte-identical replay skip parsing, structural hashing and
      matrix stamping entirely, reusing the memoised netlist and
      assembly.  Value-only {e variants} (different bytes, same
      structure) still share artifacts through the structural cache. *)
  batch_size : int;  (** jobs gathered before a parallel flush
      (default 64) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] when [cache_capacity < 0],
    [memo_capacity < 0] or [batch_size < 1]. *)

val config : t -> config
val cache_stats : t -> Deck_cache.stats

val process_lines : t -> string list -> string list
(** Run the given job lines (batched internally per
    [config.batch_size]) and return one result line per job, in input
    order.  Blank and comment lines produce no result. *)

val run_channel : t -> in_channel -> out_channel -> unit
(** Stream jobs from a channel: gather up to [batch_size] lines,
    process them, write the result lines, flush, repeat until EOF. *)

type summary = {
  jobs : int;  (** jobs executed (blank lines excluded) *)
  errors : int;  (** jobs that produced an [err] result *)
  batches : int;
  resyms : int;  (** repivot fallbacks detected and refreshed *)
  busy_s : float;  (** wall clock inside {!process_lines} *)
  decks_per_s : float;  (** [jobs /. busy_s] *)
  latency_quantiles : (float * float * float) option;
      (** (p50, p90, p99) upper-bound job latency in seconds, from the
          process-wide [serve.job_s] histogram — [None] unless
          {!Rlc_instr.Metrics} recording was enabled while the jobs
          ran *)
  cache : Deck_cache.stats;
}

val summary : t -> summary

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human-readable summary (throughput, cache hit/miss
    counts, latency quantiles when recorded). *)
