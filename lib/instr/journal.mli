(** Structured event journal: the one event buffer of [rlc_instr],
    bounded per domain, with the same lock-free record path as
    {!Metrics}.

    Producers call {!record} with a typed field list; every event is
    stamped with the recording domain's current {e provenance id} (the
    serving layer sets it around each job), a timestamp and the shard
    id.  While capturing, every completed {!Span} is recorded too, as
    a [span] event with fields [name] and [dur_us] and [ts_us] = the
    span's start; {!Trace} renders those as a Chrome trace.  When
    journaling is off, {!record} is a single predictable branch — safe
    on hot paths.  Guard any expensive field construction with
    {!capturing}.

    The read side ({!events}, {!to_lines}, {!write}) merges all shards
    chronologically and is only meaningful at quiescent points, i.e.
    after the pool has joined its workers.  {!Stat.events_of_lines}
    parses the JSONL back into {!event}s.

    Buffers are bounded per shard ([RLC_JOURNAL_CAP], default 100k
    events, spans included); overflow is counted in {!dropped}, never
    an error. *)

type field = Shard.jfield = Num of float | Int of int | Str of string

type event = Shard.jevent = {
  ts_us : float;  (** microseconds since process start *)
  shard : int;  (** recording domain's shard id *)
  provenance : string;  (** [""] when no provenance was set *)
  name : string;  (** dotted event kind, e.g. ["solver.fallback"] *)
  fields : (string * field) list;
}

val start : unit -> unit
(** Turn journaling on.  Also enables metric recording ({!Metrics}):
    the numerical-health probes only compute their observations while
    recording, so a journal without metrics would be empty of health
    detail. *)

val stop : unit -> unit
val capturing : unit -> bool

val set_cap : int -> unit
(** Per-shard event cap (ignores non-positive values). Defaults to
    [RLC_JOURNAL_CAP] or 100_000. *)

val cap : unit -> int

val record : string -> (string * field) list -> unit
(** [record name fields] appends one event to the calling domain's
    shard when journaling is on; otherwise a no-op.  Field names must
    avoid the reserved JSONL keys [ts_us]/[shard]/[prov]/[event]. *)

val set_provenance : string -> unit
(** Stamp subsequent events from this domain with the given id;
    [""] clears it. *)

val provenance : unit -> string

val with_provenance : string -> (unit -> 'a) -> 'a
(** Scoped {!set_provenance}: restores the previous id on exit, also
    on exceptions. *)

val dropped : unit -> int
(** Events lost to the per-shard cap, summed over all shards. *)

(** {1 Reading (quiescent points only)} *)

val events : unit -> event list
(** All shards merged, sorted by timestamp. *)

val line_of_event : event -> string
(** One JSON object (no trailing newline): reserved keys
    [ts_us]/[shard]/[prov]/[event], then the fields inlined. *)

val to_lines : unit -> string list

val write : string -> unit
(** Write {!to_lines} as JSONL to the given path. *)

(** {1 Typed field access} *)

val num_field : event -> string -> float option
(** [Num] and [Int] fields, as float. *)

val str_field : event -> string -> string option
