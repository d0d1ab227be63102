(** The on/off switch and the CLI-facing conveniences behind
    [--stats] / [--trace] / [--journal] / [RLC_STATS]. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Flip recording globally. Flip only at quiescent points (no worker
    domains in flight) when a bit-exact metrics picture matters. *)

val dump : ?ppf:Format.formatter -> unit -> unit
(** Print the metrics table, (if recorded) the span tree and the
    numerical-health summary, plus a notice when the journal dropped
    events at its cap.  Default formatter is stderr. *)

val setup : ?stats:bool -> ?trace:string -> ?journal:string -> unit -> unit
(** One-stop CLI wiring: [stats] (or [RLC_STATS]) enables recording
    and registers an at-exit {!dump} to stderr.  [trace] and [journal]
    each start {!Journal} capture (which also enables recording; spans
    become journal events) and register an at-exit write to the given
    path: [journal] writes every event as JSONL ({!Journal.write}),
    [trace] renders the span events as a Chrome trace
    ({!Trace.write}).  Both read the same buffer, bounded by the one
    per-shard cap ({!Journal.set_cap}, [RLC_JOURNAL_CAP]). *)
