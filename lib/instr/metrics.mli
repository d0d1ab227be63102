(** Process-wide registry of named counters, gauges and log-bucketed
    histograms, sharded per domain.

    Handles are interned once (typically at module initialization of
    the instrumented code: [let c = Metrics.counter "solver.factor"]).
    Record calls ([incr]/[add]/[set]/[observe]) write only to the
    calling domain's shard — no locks, no atomics on the hot path —
    and compile to a single predictable branch when recording is off.

    Reads ([value], [hist_summary], [snapshot], [dump]) aggregate
    across all shards and are only meaningful at quiescent points,
    i.e. when no worker domain is mid-record (the pool joins its
    workers before returning, so "after any library call" qualifies). *)

type counter
type gauge
type hist

(** Interning the same name twice returns the same handle; interning a
    name under a different kind raises [Invalid_argument]. *)

val counter : string -> counter
val gauge : string -> gauge
val hist : string -> hist

val recording : unit -> bool
(** [true] when record calls actually record. Use to skip *computing*
    an expensive observation, not to guard the record calls themselves
    (they are already self-guarding). *)

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> float -> unit

val set : gauge -> float -> unit
(** Last write wins across domains (ordered by a global sequence). *)

val observe : hist -> float -> unit
(** Values land in base-2 log buckets covering ~5e-13 .. 8e6; quantile
    estimates are upper bucket edges (within 2x of exact) clamped to
    the observed [\[min, max\]]. *)

val timed : hist -> (unit -> 'a) -> 'a
(** [timed h f] runs [f] and observes its wall-clock duration in
    seconds into [h]; when recording is off it is just [f ()]. *)

(** {1 Reading (quiescent points only)} *)

val value : counter -> float
(** Sum over all domain shards. *)

val gauge_value : gauge -> float option
(** Most recent [set] across all shards; [None] if never set. *)

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
      (** upper bucket edge containing the median, clamped to
          [\[min, max\]] *)
  p95 : float;
      (** upper bucket edge containing the 95th percentile, clamped to
          [\[min, max\]] *)
}

val hist_summary : hist -> summary option
(** Merged over all shards; [None] if no samples were recorded. *)

val hist_quantiles : hist -> float array -> float array option
(** [hist_quantiles h qs] is the upper bucket edge containing each
    requested quantile (each in [\[0, 1\]]), clamped to the observed
    [\[min, max\]] and merged over all shards —
    the same estimate [hist_summary] reports for p50/p95, for any
    quantile list (the serving layer reads p50/p90/p99).  [None] if no
    samples were recorded; raises [Invalid_argument] on a quantile
    outside [\[0, 1\]] (validated even when the histogram is empty). *)

val dump : Format.formatter -> unit
(** Human-readable table of every registered metric with its merged
    value, sorted by name. *)

val to_json : unit -> Jsonv.t
(** The registry as a JSON object, name -> value (histograms as
    [{count, sum, mean, min, p50, p95, max}]), sorted by name, of the
    metrics that hold data since the last {!reset}: zero counters,
    unset gauges and empty histograms are left out.  The bench embeds
    it as the ["metrics"] block of every [BENCH_*.json] file. *)

val json_snapshot : unit -> string
(** [Jsonv.encode (to_json ())]: one compact line. *)

val reset : unit -> unit
(** Zero all shards (metrics, span trees, trace buffers). Call only at
    quiescent points. *)
