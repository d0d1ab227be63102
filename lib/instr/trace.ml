(* Chrome trace_event rendering of the journal: every [span] event
   (see Span.exit) becomes a complete ("ph":"X") event with its shard
   id as tid, loadable in about:tracing / Perfetto / chrome://tracing.
   A pure function of the event list, so a trace rendered in-process
   and one rendered offline from the JSONL journal are byte-identical. *)

let add_span buf (e : Journal.event) =
  let name = Option.value ~default:"" (Journal.str_field e "name") in
  let dur = Option.value ~default:0.0 (Journal.num_field e "dur_us") in
  Buffer.add_string buf "{\"name\":";
  Jsonv.add_quoted buf name;
  Printf.bprintf buf
    ",\"cat\":\"rlc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
    e.ts_us dur e.shard;
  if e.provenance <> "" then begin
    Buffer.add_string buf ",\"args\":{\"prov\":";
    Jsonv.add_quoted buf e.provenance;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_string events =
  let spans =
    List.filter (fun (e : Journal.event) -> e.name = "span") events
    |> List.stable_sort (fun (a : Journal.event) b -> Int.compare a.shard b.shard)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let last_tid = ref (-1) in
  List.iteri
    (fun i (e : Journal.event) ->
      if i > 0 then Buffer.add_char buf ',';
      if e.shard <> !last_tid then begin
        last_tid := e.shard;
        Printf.bprintf buf
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"shard-%d\"}},"
          e.shard e.shard
      end;
      add_span buf e)
    spans;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write path events =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string events))
