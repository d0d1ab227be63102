(** The analysis half of [rlcstat], library-side so tests can drive
    it: parsing JSONL journals back into {!Journal.event}s,
    health/latency rollups over those events, and threshold-based
    regression diffs over two JSON snapshots.  Offline trace rendering
    is {!Trace.to_string} over the parsed events. *)

(** {1 Journal parsing} *)

val events_of_lines : string list -> Journal.event list * int
(** Each non-blank JSONL line back into the {!Journal.event} that
    {!Journal.line_of_event} wrote: [ts_us]/[shard]/[prov]/[event]
    fill the record, every other key becomes a field.  Numbers come
    back as [Num] (read ints with {!Journal.num_field}), [null] as
    [Num nan].  The second component counts skipped lines
    (unparseable, or without an ["event"]). *)

val events_of_file : string -> Journal.event list * int

(** {1 Rollup} *)

type quantiles = { p50 : float; p90 : float; p99 : float }

type kind_stats = {
  kind : string;
  count : int;
  errors : int;
  latency : quantiles option;
      (** exact nearest-rank quantiles over the [job.end] durations *)
}

type rollup = {
  events : int;
  skipped : int;
  jobs : int;
  errors : int;
  kinds : kind_stats list;  (** per query kind, first-seen order *)
  fallbacks : int;
  resyms : int;
  guard_trips : int;
  cache_hits : int;
  cache_misses : int;
  cache_aliases : int;
  health_ok : int;
  health_degraded : int;
  health_failed : int;
}

val rollup : ?skipped:int -> Journal.event list -> rollup
val pp_rollup : Format.formatter -> rollup -> unit

(** {1 Snapshot diff} *)

type finding = {
  path : string;  (** dot-joined JSON path of the numeric leaf *)
  old_v : float;
  new_v : float;
  delta : float;  (** relative change; [infinity] when [old_v = 0] *)
}

val flatten : Jsonv.t -> (string * float) list
(** Every numeric leaf with its dot-joined path. The [meta] subtree
    (dates, git revisions) is always skipped. *)

val diff : ?threshold:float -> Jsonv.t -> Jsonv.t -> finding list
(** Leaves present in both snapshots whose relative change exceeds
    [threshold] (default 0.10 = 10%).  Keys only on one side are
    ignored — snapshots evolve.  Identical inputs yield []. *)

val pp_finding : Format.formatter -> finding -> unit
