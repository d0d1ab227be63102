(** Chrome [trace_event] rendering of the {!Journal}.

    Every [span] journal event (recorded by {!Span} while the journal
    is capturing) becomes a complete ("X") event: [ts] = span start and
    [dur] in microseconds, [tid] = the recording domain's shard id, and
    [args.prov] = the span's provenance id when it has one.  The output
    loads directly in [about:tracing], [chrome://tracing] and Perfetto.

    Rendering is a pure function of the event list: the trace written
    in-process ([--trace]) and the one [rlcstat trace] renders from the
    same run's JSONL journal are byte-identical. *)

val to_string : Journal.event list -> string
(** The trace as a JSON object ([{"traceEvents": [...], ...}]): span
    events grouped by shard, in input order within a shard; all other
    events are ignored. *)

val write : string -> Journal.event list -> unit
(** [write path events] saves [to_string events] to [path]. *)
