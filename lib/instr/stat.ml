(* The analysis half of rlcstat, kept in the library so the tests can
   drive it directly: health/latency rollups over journal event
   streams, and threshold-based regression diffs over any two JSON
   snapshots (BENCH_*.json).  rlcstat's binary is a thin CLI over
   these. *)

(* ---------------- journal parsing ---------------- *)

(* The inverse of [Journal.line_of_event]: reserved keys back into the
   record, every other key into a typed field.  JSON numbers come back
   as [Num] ([Journal.num_field] reads [Int] and [Num] alike), [null]
   as [Num nan] (how [line_of_event] writes NaN); booleans, arrays and
   objects are never written and are dropped. *)
let event_of_json j =
  match (j, Jsonv.member "event" j) with
  | Jsonv.Obj kvs, Some (Jsonv.Str name) ->
      let num k =
        Option.value ~default:0.0
          (Option.bind (Jsonv.member k j) Jsonv.to_float)
      in
      let fields =
        List.filter_map
          (fun (k, v) ->
            match (k, v) with
            | ("ts_us" | "shard" | "prov" | "event"), _ -> None
            | _, Jsonv.Num x -> Some (k, Journal.Num x)
            | _, Jsonv.Null -> Some (k, Journal.Num Float.nan)
            | _, Jsonv.Str s -> Some (k, Journal.Str s)
            | _, (Jsonv.Bool _ | Jsonv.List _ | Jsonv.Obj _) -> None)
          kvs
      in
      Some
        {
          Journal.ts_us = num "ts_us";
          shard = int_of_float (num "shard");
          provenance =
            Option.value ~default:""
              (Option.bind (Jsonv.member "prov" j) Jsonv.to_string);
          name;
          fields;
        }
  | _ -> None

let event_of_line line =
  match Jsonv.parse line with
  | Ok j -> event_of_json j
  | Error _ -> None

(* skip blank and unparseable lines, reporting how many were dropped *)
let events_of_lines lines =
  let skipped = ref 0 in
  let events =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else begin
          match event_of_line line with
          | Some e -> Some e
          | None ->
              incr skipped;
              None
        end)
      lines
  in
  (events, !skipped)

let events_of_file path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> events_of_lines

(* ---------------- rollup ---------------- *)

type quantiles = { p50 : float; p90 : float; p99 : float }

type kind_stats = {
  kind : string;
  count : int;
  errors : int;
  latency : quantiles option;
}

type rollup = {
  events : int;
  skipped : int;  (** unparseable journal lines *)
  jobs : int;
  errors : int;
  kinds : kind_stats list;
  fallbacks : int;  (** [solver.fallback] events *)
  resyms : int;  (** [cache.resym] events *)
  guard_trips : int;  (** [smw.guard] events *)
  cache_hits : int;
  cache_misses : int;
  cache_aliases : int;
  health_ok : int;
  health_degraded : int;
  health_failed : int;
}

(* exact nearest-rank quantile over raw samples (unlike the metric
   histograms, the journal keeps every job duration) *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(Int.max 0 (Int.min (n - 1) (i - 1)))

let quantiles_of samples =
  match samples with
  | [] -> None
  | _ ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      Some
        {
          p50 = nearest_rank a 0.50;
          p90 = nearest_rank a 0.90;
          p99 = nearest_rank a 0.99;
        }

let rollup ?(skipped = 0) events =
  let jobs = ref 0 and errors = ref 0 in
  let fallbacks = ref 0
  and resyms = ref 0
  and guard_trips = ref 0
  and hits = ref 0
  and misses = ref 0
  and aliases = ref 0
  and ok = ref 0
  and degraded = ref 0
  and failed = ref 0 in
  (* per-kind job durations + error counts, in first-seen order *)
  let order = ref [] in
  let by_kind : (string, float list ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let kind_cell kind =
    match Hashtbl.find_opt by_kind kind with
    | Some c -> c
    | None ->
        let c = (ref [], ref 0, ref 0) in
        Hashtbl.add by_kind kind c;
        order := kind :: !order;
        c
  in
  List.iter
    (fun (e : Journal.event) ->
      match e.name with
      | "job.end" ->
          incr jobs;
          (* anything the service did not mark "ok" ("error",
             "rejected") counts against the error rate *)
          let err =
            match Journal.str_field e "status" with
            | Some "ok" | None -> false
            | Some _ -> true
          in
          if err then incr errors;
          let kind = Option.value ~default:"?" (Journal.str_field e "kind") in
          let samples, count, errs = kind_cell kind in
          incr count;
          if err then incr errs;
          (match Journal.num_field e "s" with
          | Some s -> samples := s :: !samples
          | None -> ())
      | "solver.fallback" -> incr fallbacks
      | "cache.resym" -> incr resyms
      | "smw.guard" -> incr guard_trips
      | "cache.hit" -> incr hits
      | "cache.miss" -> incr misses
      | "cache.alias" -> incr aliases
      | "health" -> begin
          match Option.bind (Journal.str_field e "class") Health.of_string with
          | Some Health.Ok -> incr ok
          | Some Health.Degraded -> incr degraded
          | Some Health.Failed -> incr failed
          | None -> ()
        end
      | _ -> ())
    events;
  let kinds =
    List.rev_map
      (fun kind ->
        let samples, count, errs = Hashtbl.find by_kind kind in
        {
          kind;
          count = !count;
          errors = !errs;
          latency = quantiles_of !samples;
        })
      !order
  in
  {
    events = List.length events;
    skipped;
    jobs = !jobs;
    errors = !errors;
    kinds;
    fallbacks = !fallbacks;
    resyms = !resyms;
    guard_trips = !guard_trips;
    cache_hits = !hits;
    cache_misses = !misses;
    cache_aliases = !aliases;
    health_ok = !ok;
    health_degraded = !degraded;
    health_failed = !failed;
  }

let rate num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp_rollup ppf r =
  Format.fprintf ppf "journal: %d events" r.events;
  if r.skipped > 0 then
    Format.fprintf ppf " (%d unparseable lines skipped)" r.skipped;
  Format.fprintf ppf "@.";
  Format.fprintf ppf "jobs: %d (%d err, %.1f%%)@." r.jobs r.errors
    (rate r.errors r.jobs);
  List.iter
    (fun k ->
      Format.fprintf ppf "  %-12s %6d jobs, %d err" k.kind k.count k.errors;
      (match k.latency with
      | Some q ->
          Format.fprintf ppf ", p50 %.3g s, p90 %.3g s, p99 %.3g s" q.p50
            q.p90 q.p99
      | None -> ());
      Format.fprintf ppf "@.")
    r.kinds;
  Format.fprintf ppf
    "cache: %d hits / %d misses / %d aliases, %d resyms (%.1f%% of jobs)@."
    r.cache_hits r.cache_misses r.cache_aliases r.resyms
    (rate r.resyms r.jobs);
  Format.fprintf ppf
    "solver: %d fallbacks (%.1f%% of jobs), %d SMW guard trips@." r.fallbacks
    (rate r.fallbacks r.jobs)
    r.guard_trips;
  Format.fprintf ppf "health: %d ok / %d degraded / %d failed@." r.health_ok
    r.health_degraded r.health_failed

(* ---------------- snapshot diff ---------------- *)

type finding = {
  path : string;
  old_v : float;
  new_v : float;
  delta : float;  (** relative change; [infinity] when old = 0 *)
}

(* every numeric leaf, dot-joined; [meta.*] (dates, git revs, host
   facts) is never comparable and always skipped *)
let flatten json =
  let acc = ref [] in
  let rec go prefix j =
    match j with
    | Jsonv.Num v -> acc := (prefix, v) :: !acc
    | Jsonv.Obj kvs ->
        List.iter
          (fun (k, v) ->
            let p = if prefix = "" then k else prefix ^ "." ^ k in
            if p <> "meta" then go p v)
          kvs
    | Jsonv.List l ->
        List.iteri
          (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v)
          l
    | Jsonv.Null | Jsonv.Bool _ | Jsonv.Str _ -> ()
  in
  go "" json;
  List.rev !acc

let diff ?(threshold = 0.10) old_json new_json =
  let old_leaves = flatten old_json in
  let new_leaves = flatten new_json in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace new_tbl p v) new_leaves;
  List.filter_map
    (fun (path, old_v) ->
      match Hashtbl.find_opt new_tbl path with
      | None -> None (* snapshots evolve; a vanished key is not a regression *)
      | Some new_v ->
          if old_v = new_v then None
          else begin
            let delta =
              if old_v = 0.0 then infinity
              else (new_v -. old_v) /. Float.abs old_v
            in
            if Float.abs delta > threshold then
              Some { path; old_v; new_v; delta }
            else None
          end)
    old_leaves

let pp_finding ppf f =
  if Float.is_finite f.delta then
    Format.fprintf ppf "%-40s %14.6g -> %-14.6g (%+.1f%%)" f.path f.old_v
      f.new_v (100.0 *. f.delta)
  else
    Format.fprintf ppf "%-40s %14.6g -> %-14.6g (was zero)" f.path f.old_v
      f.new_v
