(** Nested wall-clock spans with per-domain aggregation.

    Spans nest lexically within a domain: [with_ "outer" (fun () ->
    with_ "inner" work)] accumulates ["inner"] as a child of
    ["outer"]. Identical paths merge — total time and call counts add
    up — so steady-state instrumentation allocates nothing after the
    first pass. While the {!Journal} is capturing, each completed span
    is also recorded as a [span] journal event — fields [name] and
    [dur_us], [ts_us] = span start, stamped with the shard's current
    provenance — which is what {!Trace} renders. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span. Exception-safe; a plain
    call to [f] when recording is off. *)

val exit : unit -> unit
(** Close the innermost open span. No-op if none is open (so a
    mid-span disable cannot unbalance the stack). *)

(** {1 Aggregated results (quiescent points only)} *)

type tree = {
  name : string;
  calls : int;
  total_s : float;  (** wall-clock inside this span, children included *)
  self_s : float;  (** [total_s] minus the sum of children's totals *)
  children : tree list;  (** sorted by [total_s], descending *)
}

val trees : unit -> tree list
(** Root spans merged across all domain shards, sorted by total time. *)

val dump_tree : Format.formatter -> unit
(** ASCII calls / total / self table of [trees ()], indented by
    nesting depth. Prints nothing if no spans were recorded. *)
