(* Internal spine of [rlc_instr]: the global recording switches, the
   wall clock, and the per-domain shards every record call writes into.

   Each domain that records anything gets exactly one shard, created
   lazily through domain-local storage and registered in a global list
   so its contents survive the domain's death (the pool's workers are
   short-lived).  The hot path — counter bump, gauge set, histogram
   observe, span push/pop — therefore touches only domain-local memory:
   no atomics, no locks, no contention, and no way to perturb the
   bit-identical scheduling guarantees of [Rlc_parallel.Pool].  All
   cross-shard aggregation happens on the (cold) read side, which is
   only meaningful at quiescent points, i.e. after the pool has joined
   its workers.

   Everything here is an implementation detail of the sibling modules
   ({!Metrics}, {!Span}, {!Journal}, {!Control}); use those instead. *)

let truthy = function
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* The process-wide switch.  A plain [bool ref]: reading it is one load
   and a predictable branch, which is what makes every record call a
   no-op when instrumentation is off.  It is flipped at startup (or at
   quiescent points in benches/tests), so the relaxed cross-domain
   visibility of a non-atomic read is irrelevant in practice. *)
let enabled = ref (truthy (Sys.getenv_opt "RLC_STATS"))

(* Journal events (see {!Journal}), completed spans included, are
   recorded only when this is on; metric recording alone never grows
   memory without bound.  Like [enabled] it is flipped at quiescent
   points. *)
let journaling = ref false

let env_cap name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> default

let now_s = Unix.gettimeofday
let start_s = now_s ()
let now_us () = (now_s () -. start_s) *. 1e6

(* ---------------- histogram cells ---------------- *)

(* Log-bucketed (base 2): bucket [b] holds values in
   [2^(b-41), 2^(b-40)), i.e. ~5e-13 .. 8e6 — wide enough for both
   second-resolution timings and iteration counts.  [Float.frexp]
   places v in [2^(e-1), 2^e), so the bucket index is just the
   exponent, clamped. *)
let n_buckets = 64

let bucket_of v =
  if not (v > 0.0) then 0
  else begin
    let _, e = Float.frexp v in
    Int.max 0 (Int.min (n_buckets - 1) (e + 40))
  end

let bucket_upper b = Float.ldexp 1.0 (b - 40)

type hist_cell = {
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  hbuckets : int array;
}

let fresh_hist () =
  {
    hcount = 0;
    hsum = 0.0;
    hmin = infinity;
    hmax = neg_infinity;
    hbuckets = Array.make n_buckets 0;
  }

(* ---------------- span tree ---------------- *)

type span_node = {
  sname : string;
  mutable total_us : float;
  mutable calls : int;
  children : (string, span_node) Hashtbl.t;
}

let fresh_node name =
  { sname = name; total_us = 0.0; calls = 0; children = Hashtbl.create 4 }

(* ---------------- journal events ---------------- *)

(* re-exported as [Journal.field] / [Journal.event] *)
type jfield = Num of float | Int of int | Str of string

type jevent = {
  ts_us : float;
  shard : int;
  provenance : string;  (** [""] = none *)
  name : string;
  fields : (string * jfield) list;
}

(* ---------------- shards ---------------- *)

type t = {
  id : int;  (** becomes the [tid] in trace exports *)
  mutable counters : float array;  (** indexed by counter slot *)
  mutable gauge_vals : float array;
  mutable gauge_seq : int array;  (** 0 = never set; else global seq *)
  mutable hists : hist_cell option array;
  sroot : span_node;
  mutable span_stack : (span_node * float) list;  (** (node, start us) *)
  mutable jevents : jevent list;  (** journal events, newest first *)
  mutable n_jevents : int;
  mutable dropped_jevents : int;
  mutable current_prov : string;  (** stamped on journal events *)
}

(* Backstop so a pathological journaling run cannot grow without
   bound: overridable per process via [RLC_JOURNAL_CAP] or
   [Journal.set_cap]. *)
let max_jevents_per_shard = ref (env_cap "RLC_JOURNAL_CAP" 100_000)

let registry_mutex = Mutex.create ()
let shards : t list ref = ref []
let next_shard_id = ref 0

(* one global sequence so "last write wins" is well defined for gauges
   across shards; gauges are set rarely (plan creation, not per step) *)
let gauge_clock = Atomic.make 1

let fresh_shard id =
  {
    id;
    counters = [||];
    gauge_vals = [||];
    gauge_seq = [||];
    hists = [||];
    sroot = fresh_node "";
    span_stack = [];
    jevents = [];
    n_jevents = 0;
    dropped_jevents = 0;
    current_prov = "";
  }

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect registry_mutex (fun () ->
          let s = fresh_shard !next_shard_id in
          incr next_shard_id;
          shards := s :: !shards;
          s))

let current () = Domain.DLS.get key
let all_shards () = Mutex.protect registry_mutex (fun () -> !shards)

(* Append one journal event to [sh], stamped with its provenance, or
   count it dropped once the shard is at its cap. *)
let push sh ~ts_us name fields =
  if sh.n_jevents < !max_jevents_per_shard then begin
    sh.jevents <-
      { ts_us; shard = sh.id; provenance = sh.current_prov; name; fields }
      :: sh.jevents;
    sh.n_jevents <- sh.n_jevents + 1
  end
  else sh.dropped_jevents <- sh.dropped_jevents + 1

(* growable slot arrays: slots are handed out globally, each shard
   grows its own cells on first touch *)

let grown_len old slot = Int.max 8 (Int.max (slot + 1) (2 * old))

let ensure_counter sh slot =
  let len = Array.length sh.counters in
  if slot >= len then begin
    let a = Array.make (grown_len len slot) 0.0 in
    Array.blit sh.counters 0 a 0 len;
    sh.counters <- a
  end

let ensure_gauge sh slot =
  let len = Array.length sh.gauge_vals in
  if slot >= len then begin
    let n = grown_len len slot in
    let v = Array.make n 0.0 and s = Array.make n 0 in
    Array.blit sh.gauge_vals 0 v 0 len;
    Array.blit sh.gauge_seq 0 s 0 len;
    sh.gauge_vals <- v;
    sh.gauge_seq <- s
  end

let ensure_hist sh slot =
  let len = Array.length sh.hists in
  if slot >= len then begin
    let a = Array.make (grown_len len slot) None in
    Array.blit sh.hists 0 a 0 len;
    sh.hists <- a
  end;
  match sh.hists.(slot) with
  | Some h -> h
  | None ->
      let h = fresh_hist () in
      sh.hists.(slot) <- Some h;
      h

let rec reset_node node =
  node.total_us <- 0.0;
  node.calls <- 0;
  Hashtbl.iter (fun _ c -> reset_node c) node.children;
  Hashtbl.reset node.children

(* Zero every shard (metrics, span trees, journal buffers).  Only
   meaningful at quiescent points — callers must not hold open spans or
   have worker domains in flight. *)
let reset () =
  List.iter
    (fun sh ->
      Array.fill sh.counters 0 (Array.length sh.counters) 0.0;
      Array.fill sh.gauge_seq 0 (Array.length sh.gauge_seq) 0;
      Array.fill sh.hists 0 (Array.length sh.hists) None;
      reset_node sh.sroot;
      sh.span_stack <- [];
      sh.jevents <- [];
      sh.n_jevents <- 0;
      sh.dropped_jevents <- 0;
      sh.current_prov <- "")
    (all_shards ())
