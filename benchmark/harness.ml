(* What every workload shares: the timed window, repeated set-up, the
   traced pass, and the metric names and the result line the benchmark
   prints. *)

module M = Rlc_instr.Metrics

type config = {
  seed : int;
  seconds : float;  (** the timed window the op counts are sized to *)
  trace : bool;  (** run the traced passes and report per-layer metrics *)
  smoke : bool;  (** tiny op counts, every output verified *)
  trace_out : string option;  (** where the replay's spans are written *)
}

(* Monotonic seconds, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Timed rounds per window (one in smoke mode). *)
let rounds cfg = if cfg.smoke then 1 else 5

(* Ops per round for a window of [cfg.seconds] at [per_s], the rate this
   workload runs at on the reference machine (README.md).  The count,
   not the clock, ends the window, so every commit does the same work. *)
let round_ops cfg ~per_s ~smoke =
  if cfg.smoke then smoke
  else Int.max 30 (int_of_float (Float.round (per_s *. cfg.seconds /. float_of_int (rounds cfg))))

let rng cfg salt = Random.State.make [| cfg.seed; salt |]

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* VmHWM: the peak resident set of this process so far. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* Each op's best time over the rounds.  The rounds repeat the same ops
   seconds apart, and load from outside the process (other tenants of
   the machine) only ever slows an op down, so the best of an op's
   repeats is its own cost. *)
let best_of_rounds ~rounds ~m a =
  Array.init m (fun i ->
      let b = ref infinity in
      for r = 0 to rounds - 1 do
        b := Float.min !b a.((r * m) + i)
      done;
      !b)

type window = {
  best : float array;  (** each op's best time over the timed rounds *)
  round_ops_s : float array;  (** each timed round's ops per second *)
  setup_s : float;  (** median time of the rounds' set-ups *)
  minor_mb_per_op : float;  (** minor-heap allocation of the timed ops *)
  live_mb_end : float;
      (** live heap after the window, once the last round's state is
          dropped and a major GC has run: what the program retains *)
  peak_rss_mb : float;  (** VmHWM when the last round ends *)
}

(* Set-up is never counted by the library's instrumentation. *)
let unrecorded f =
  let on = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled false;
  Fun.protect ~finally:(fun () -> Rlc_instr.Control.set_enabled on) f

(* One warm-up round (round -1), then [rounds cfg] timed rounds.  Each round
   starts from a fresh [setup ~round] (timed on its own, with a full
   major GC before it) and runs ops [0 .. m-1] on that state: [op s i]
   is timed, [check ~round i r] is not.  Replaying one op list per round
   keeps the program's retained memory to what one round builds, and
   makes every round the same work. *)
let window cfg ~setup ~m ~op ~check =
  let rounds = rounds cfg in
  let samples = Array.make (rounds * m) 0.0 in
  let setups = Array.make (rounds + 1) 0.0 and minor = ref 0.0 in
  for round = -1 to rounds - 1 do
    Gc.full_major ();
    let t0 = now () in
    let s = unrecorded (fun () -> setup ~round) in
    setups.(round + 1) <- now () -. t0;
    Gc.full_major ();
    for i = 0 to m - 1 do
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = op s i in
      let dt = now () -. t0 in
      if round >= 0 then begin
        samples.((round * m) + i) <- dt;
        minor := !minor +. (Gc.minor_words () -. w0)
      end;
      check ~round i r
    done
  done;
  let peak = peak_rss_mb () in
  Gc.full_major ();
  {
    best = best_of_rounds ~rounds ~m samples;
    round_ops_s =
      Array.init rounds (fun r ->
          float_of_int m /. Stats.sum (Array.sub samples (r * m) m));
    setup_s = Stats.median setups;
    minor_mb_per_op = mb_of_words !minor /. float_of_int (rounds * m);
    live_mb_end = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.live_words);
    peak_rss_mb = peak;
  }

(* Runs [f] with the library's instrumentation recording, counters
   zeroed first so no pass sees another's counts. *)
let traced f =
  M.reset ();
  Rlc_instr.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Rlc_instr.Control.set_enabled false) f

let counter name = M.value (M.counter name)

let hist name =
  match M.hist_summary (M.hist name) with
  | Some s -> (s.M.count, s.M.sum)
  | None -> (0, 0.0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* results                                                              *)
(* ------------------------------------------------------------------ *)

type measured = {
  attempted : int;
  failed : int;
  untraced : window;
  layers : (string * float) list;  (** per-layer values (trace runs) *)
  notes : string list;  (** human-readable detail, printed to stderr *)
}

let throughput w = float_of_int (Array.length w.best) /. Stats.sum w.best

(* The common per-layer values of a traced run: allocation, live heap,
   and what recording cost against the untraced window. *)
let common_layers ~untraced ~pass_a =
  [
    ("gc.minor_mb_per_op", untraced.minor_mb_per_op);
    ("gc.live_mb_end", untraced.live_mb_end);
    ( "trace.overhead_frac",
      1.0 -. (throughput pass_a /. throughput untraced) );
  ]

let end_to_end =
  [
    ("throughput_ops_s", "1/s");
    ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    (* serve: the layer replay (per job, or per call where named) *)
    ("protocol.parse_us", "us");
    ("parser.parse_ms", "ms");
    ("netlist.key_ms", "ms");
    ("assembly.stamp_ms", "ms");
    ("assembly.plan_ms", "ms");
    ("solver.analyze_ms", "ms");
    ("dc.solve_ms", "ms");
    ("solver.refactor_ms", "ms");
    ("ac.engine_ms", "ms");
    ("ac.point_us", "us");
    ("transient.sim_ms", "ms");
    ("measure.delay_us", "us");
    ("whatif.compile_ms", "ms");
    ("whatif.evaluate_ms", "ms");
    ("whatif.gradient_ms", "ms");
    ("protocol.render_us", "us");
    ("serve.attributed_frac", "frac");
    (* serve: counters of the recorded pass *)
    ("service.memo_hit_frac", "frac");
    ("deck_cache.hit_frac", "frac");
    ("deck_cache.resym_per_job", "count");
    ("deck_cache.evictions_per_job", "count");
    ("solver.sparse.analyze_per_job", "count");
    ("solver.sparse.refactor_per_job", "count");
    ("service.job_ms.dc", "ms");
    ("service.job_ms.ac", "ms");
    ("service.job_ms.tran", "ms");
    ("service.job_ms.delay", "ms");
    ("service.job_ms.delay-sens", "ms");
    (* optimize-hk *)
    ("rlc_opt.optimize_us", "us");
    ("rlc_opt.newton_us", "us");
    ("rlc_opt.nm_us", "us");
    ("rlc_opt.objective_us", "us");
    ("newton.iterations_per_opt", "count");
    ("nelder_mead.iterations_per_opt", "count");
    ("newton.fallback_frac", "frac");
    (* transient-ladder *)
    ("transient.rejected_frac", "frac");
    ("transient.advances_per_attempt", "count");
    ("transient.advance_us", "us");
    ("transient.fixed_step_us", "us");
    ("transient.lu_cache_hit_frac", "frac");
    ("solver.factor_per_sim", "count");
    ("solver.solve_us", "us");
    ("transient.wave_err_max_pct", "%");
    (* every workload *)
    ("gc.minor_mb_per_op", "MB");
    ("gc.live_mb_end", "MB");
    ("trace.overhead_frac", "frac");
  ]

(* The end-to-end values, or an error naming a refused percentile.
   Latencies are percentiles of the ops' best times. *)
let e2e_values m =
  match Stats.percentile (Stats.sorted m.untraced.best) 0.5 with
  | None ->
      Error
        (Printf.sprintf "latency_p50_ms refused: %d ops leave fewer than %d beyond it"
           (Array.length m.untraced.best) Stats.min_beyond)
  | Some p50 ->
      Ok
        [
          ("throughput_ops_s", throughput m.untraced);
          ("latency_p50_ms", p50.Stats.value *. 1e3);
          ("peak_rss_mb", m.untraced.peak_rss_mb);
          ("setup_s", m.untraced.setup_s);
        ]

(* Human lines: the tail percentiles too, each with its sample count,
   and each round's rate (the spread the best-of-rounds times remove). *)
let describe name m =
  let sorted = Stats.sorted m.untraced.best in
  let pct label q =
    match Stats.percentile sorted q with
    | Some p ->
        Printf.sprintf "  %s %.4f ms (n=%d ops, %d beyond)" label (p.Stats.value *. 1e3)
          p.Stats.n p.Stats.beyond
    | None ->
        Printf.sprintf "  %s refused (n=%d ops, fewer than %d beyond)" label
          (Array.length sorted) Stats.min_beyond
  in
  (Printf.sprintf "%s: %d attempted, %d failed, %.2f ops/s, setup %.4f s, peak rss %.1f MB"
     name m.attempted m.failed (throughput m.untraced) m.untraced.setup_s
     m.untraced.peak_rss_mb)
  :: Printf.sprintf "  rounds: %s ops/s"
       (String.concat " "
          (Array.to_list (Array.map (Printf.sprintf "%.2f") m.untraced.round_ops_s)))
  :: pct "p50" 0.5 :: pct "p90" 0.9 :: pct "p99" 0.99 :: m.notes

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
