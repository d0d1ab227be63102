type kind = Counter | Gauge | Hist

type counter = int
type gauge = int
type hist = int

(* name -> (kind, slot). Slots are per-kind dense indices into the
   shard arrays. Interning is rare (module init at call sites), so a
   mutex is fine; the record path never touches this table. *)
let names : (string, kind * int) Hashtbl.t = Hashtbl.create 64
let next_slot = [| 0; 0; 0 |]

let kind_index = function Counter -> 0 | Gauge -> 1 | Hist -> 2
let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Hist -> "histogram"

let intern kind name =
  Mutex.protect Shard.registry_mutex (fun () ->
      match Hashtbl.find_opt names name with
      | Some (k, slot) when k = kind -> slot
      | Some (k, _) ->
          invalid_arg
            (Printf.sprintf "Rlc_instr.Metrics: %S is a %s, not a %s" name
               (kind_name k) (kind_name kind))
      | None ->
          let i = kind_index kind in
          let slot = next_slot.(i) in
          next_slot.(i) <- slot + 1;
          Hashtbl.add names name (kind, slot);
          slot)

let counter name = intern Counter name
let gauge name = intern Gauge name
let hist name = intern Hist name

let recording () = !Shard.enabled

(* ---------------- record path ---------------- *)

let add c v =
  if !Shard.enabled then begin
    let sh = Shard.current () in
    Shard.ensure_counter sh c;
    sh.Shard.counters.(c) <- sh.Shard.counters.(c) +. v
  end

let incr c = add c 1.0

let set g v =
  if !Shard.enabled then begin
    let sh = Shard.current () in
    Shard.ensure_gauge sh g;
    sh.Shard.gauge_vals.(g) <- v;
    sh.Shard.gauge_seq.(g) <- Atomic.fetch_and_add Shard.gauge_clock 1
  end

let observe h v =
  if !Shard.enabled then begin
    let sh = Shard.current () in
    let cell = Shard.ensure_hist sh h in
    cell.Shard.hcount <- cell.Shard.hcount + 1;
    cell.Shard.hsum <- cell.Shard.hsum +. v;
    if v < cell.Shard.hmin then cell.Shard.hmin <- v;
    if v > cell.Shard.hmax then cell.Shard.hmax <- v;
    let b = Shard.bucket_of v in
    cell.Shard.hbuckets.(b) <- cell.Shard.hbuckets.(b) + 1
  end

let timed h f =
  if !Shard.enabled then begin
    let t0 = Shard.now_s () in
    let finally () = observe h (Shard.now_s () -. t0) in
    Fun.protect ~finally f
  end
  else f ()

(* ---------------- read path (quiescent points only) ---------------- *)

let value c =
  List.fold_left
    (fun acc sh ->
      if c < Array.length sh.Shard.counters then acc +. sh.Shard.counters.(c)
      else acc)
    0.0 (Shard.all_shards ())

let gauge_value g =
  let best = ref None and best_seq = ref 0 in
  List.iter
    (fun sh ->
      if g < Array.length sh.Shard.gauge_vals then begin
        let seq = sh.Shard.gauge_seq.(g) in
        if seq > !best_seq then begin
          best_seq := seq;
          best := Some sh.Shard.gauge_vals.(g)
        end
      end)
    (Shard.all_shards ());
  !best

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let quantile ~count ~lo ~hi buckets q =
  (* upper edge of the bucket containing the q-th sample -- an
     overestimate by at most 2x, which is all a log-bucketed histogram
     promises -- clamped to the observed [lo, hi]: no quantile may
     exceed the max (nor undercut the min) *)
  let target = Float.to_int (Float.ceil (q *. Float.of_int count)) in
  let target = Int.max 1 (Int.min count target) in
  let rec go b seen =
    if b >= Shard.n_buckets then Shard.bucket_upper (Shard.n_buckets - 1)
    else begin
      let seen = seen + buckets.(b) in
      if seen >= target then Shard.bucket_upper b else go (b + 1) seen
    end
  in
  Float.min hi (Float.max lo (go 0 0))

let merged_buckets h =
  let count = ref 0
  and sum = ref 0.0
  and mn = ref infinity
  and mx = ref neg_infinity in
  let buckets = Array.make Shard.n_buckets 0 in
  List.iter
    (fun sh ->
      if h < Array.length sh.Shard.hists then begin
        match sh.Shard.hists.(h) with
        | None -> ()
        | Some cell ->
            count := !count + cell.Shard.hcount;
            sum := !sum +. cell.Shard.hsum;
            if cell.Shard.hmin < !mn then mn := cell.Shard.hmin;
            if cell.Shard.hmax > !mx then mx := cell.Shard.hmax;
            Array.iteri
              (fun b n -> buckets.(b) <- buckets.(b) + n)
              cell.Shard.hbuckets
      end)
    (Shard.all_shards ());
  (!count, !sum, !mn, !mx, buckets)

let hist_quantiles h qs =
  (* validate before the empty-histogram shortcut: a bogus quantile is
     a caller bug whether or not samples have arrived yet *)
  Array.iter
    (fun q ->
      if not (q >= 0.0 && q <= 1.0) then
        invalid_arg "Rlc_instr.Metrics.hist_quantiles: quantile outside [0,1]")
    qs;
  let count, _, lo, hi, buckets = merged_buckets h in
  if count = 0 then None
  else Some (Array.map (quantile ~count ~lo ~hi buckets) qs)

let hist_summary h =
  let count, sum, mn, mx, buckets = merged_buckets h in
  if count = 0 then None
  else
    Some
      {
        count;
        sum;
        mean = sum /. Float.of_int count;
        min = mn;
        max = mx;
        p50 = quantile ~count ~lo:mn ~hi:mx buckets 0.50;
        p95 = quantile ~count ~lo:mn ~hi:mx buckets 0.95;
      }

type snapshot_entry =
  | Counter_v of float
  | Gauge_v of float option
  | Hist_v of summary option

let snapshot () =
  let entries =
    Mutex.protect Shard.registry_mutex (fun () ->
        Hashtbl.fold (fun name (kind, slot) acc -> (name, kind, slot) :: acc)
          names [])
  in
  entries
  |> List.map (fun (name, kind, slot) ->
         let v =
           match kind with
           | Counter -> Counter_v (value slot)
           | Gauge -> Gauge_v (gauge_value slot)
           | Hist -> Hist_v (hist_summary slot)
         in
         (name, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_num ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.6g" v

let dump ppf =
  let entries = snapshot () in
  let width =
    List.fold_left (fun w (n, _) -> Int.max w (String.length n)) 6 entries
  in
  Format.fprintf ppf "%-*s  %s@." width "metric" "value";
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v v -> Format.fprintf ppf "%-*s  %a@." width name pp_num v
      | Gauge_v None -> Format.fprintf ppf "%-*s  -@." width name
      | Gauge_v (Some v) -> Format.fprintf ppf "%-*s  %a@." width name pp_num v
      | Hist_v None -> Format.fprintf ppf "%-*s  (no samples)@." width name
      | Hist_v (Some s) ->
          Format.fprintf ppf
            "%-*s  n=%d sum=%.6g mean=%.3g min=%.3g p50<=%.3g p95<=%.3g \
             max=%.3g@."
            width name s.count s.sum s.mean s.min s.p50 s.p95 s.max)
    entries

let to_json () =
  let num v = Jsonv.Num v in
  Jsonv.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Counter_v v when v <> 0.0 -> Some (name, num v)
         | Gauge_v (Some v) -> Some (name, num v)
         | Hist_v (Some s) ->
             Some
               ( name,
                 Jsonv.Obj
                   [
                     ("count", num (float_of_int s.count));
                     ("sum", num s.sum);
                     ("mean", num s.mean);
                     ("min", num s.min);
                     ("p50", num s.p50);
                     ("p95", num s.p95);
                     ("max", num s.max);
                   ] )
         | Counter_v _ | Gauge_v None | Hist_v None -> None)
       (snapshot ()))

let json_snapshot () = Jsonv.encode (to_json ())

let reset = Shard.reset
