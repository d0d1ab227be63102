(* Structured event journal — the one event buffer of [rlc_instr]:
   bounded per-domain JSONL buffers with the same lock-free record
   discipline as [Metrics] — a record call touches only the calling
   domain's shard, so journaling cannot perturb the pool's
   bit-identical scheduling.  Every event carries the shard's current
   provenance id (set by the serving layer around each job), which is
   what makes a bad deck in a million-job stream attributable after
   the fact.  Completed spans land here too ({!Span.exit}), and the
   Chrome trace is rendered from them ({!Trace}). *)

type field = Shard.jfield = Num of float | Int of int | Str of string

type event = Shard.jevent = {
  ts_us : float;
  shard : int;
  provenance : string;
  name : string;
  fields : (string * field) list;
}

(* Journaling implies recording: the numerical-health probes compute
   their observations only under [Metrics.recording ()], so a journal
   without metrics would be silently empty of health detail. *)
let start () =
  Shard.enabled := true;
  Shard.journaling := true

let stop () = Shard.journaling := false
let capturing () = !Shard.journaling
let set_cap n = if n > 0 then Shard.max_jevents_per_shard := n
let cap () = !Shard.max_jevents_per_shard

let record name fields =
  if !Shard.journaling then
    Shard.push (Shard.current ()) ~ts_us:(Shard.now_us ()) name fields

let set_provenance p = (Shard.current ()).Shard.current_prov <- p

let provenance () = (Shard.current ()).Shard.current_prov

let with_provenance p f =
  let sh = Shard.current () in
  let saved = sh.Shard.current_prov in
  sh.Shard.current_prov <- p;
  Fun.protect ~finally:(fun () -> sh.Shard.current_prov <- saved) f

let dropped () =
  List.fold_left
    (fun acc (sh : Shard.t) -> acc + sh.Shard.dropped_jevents)
    0 (Shard.all_shards ())

(* read side: quiescent points only, like every cross-shard merge *)

let events () =
  List.concat_map
    (fun (sh : Shard.t) -> List.rev sh.Shard.jevents)
    (Shard.all_shards ())
  |> List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us)

(* One JSON object per line, reserved keys first, then the typed
   fields inlined at top level (callers must avoid the reserved names
   ts_us / shard / prov / event). *)
let line_of_event e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"ts_us\":";
  Buffer.add_string buf (Jsonv.number e.ts_us);
  Buffer.add_string buf (Printf.sprintf ",\"shard\":%d" e.shard);
  if e.provenance <> "" then begin
    Buffer.add_string buf ",\"prov\":";
    Jsonv.add_quoted buf e.provenance
  end;
  Buffer.add_string buf ",\"event\":";
  Jsonv.add_quoted buf e.name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Jsonv.add_quoted buf k;
      Buffer.add_char buf ':';
      match v with
      | Num x -> Buffer.add_string buf (Jsonv.number x)
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Str s -> Jsonv.add_quoted buf s)
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_lines () = List.map line_of_event (events ())

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (to_lines ()))

(* typed field access for the in-process consumers (Health, tests) *)

let field e k = List.assoc_opt k e.fields

let num_field e k =
  match field e k with
  | Some (Num v) -> Some v
  | Some (Int n) -> Some (float_of_int n)
  | Some (Str _) | None -> None

let str_field e k =
  match field e k with Some (Str s) -> Some s | Some _ | None -> None
