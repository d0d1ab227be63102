(* Tests for rlc_instr: registry merge across domain counts, the
   recording switch never changing simulation results (bitwise), trace
   JSON well-formedness and span nesting, the disabled record path
   staying cheap, and the Transient.Stats surface. *)

module M = Rlc_instr.Metrics
module Span = Rlc_instr.Span
module Trace = Rlc_instr.Trace
module Journal = Rlc_instr.Journal
module Control = Rlc_instr.Control
module Pool = Rlc_parallel.Pool

(* Run [f] with recording forced on/off, restoring the previous state
   (the suite must behave the same under RLC_STATS=1 and unset). *)
let with_recording on f =
  let was = Control.enabled () in
  Control.set_enabled on;
  Fun.protect ~finally:(fun () -> Control.set_enabled was) f

let check_bits name expected actual =
  Alcotest.(check (list int64))
    name
    (List.map Int64.bits_of_float expected)
    (List.map Int64.bits_of_float actual)

(* ---------------- minimal JSON well-formedness checker ------------ *)

(* Recursive-descent pass over the whole string; raises [Failure] on
   the first syntax error. Good enough to assert the trace export and
   metrics snapshot are loadable JSON without an external parser. *)
let json_check s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit w =
    let m = String.length w in
    if !pos + m <= n && String.sub s !pos m = w then pos := !pos + m
    else fail w
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "number"
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            go ()
        | _ ->
            incr pos;
            go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            elems ()
        | Some ']' -> incr pos
        | _ -> fail "array"
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- registry ---------------- *)

let merge_count = M.counter "test.merge.count"
let merge_obs = M.hist "test.merge.obs"

let test_registry_merge () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      M.reset ();
      with_recording true (fun () ->
          let xs = Array.init 101 float_of_int in
          ignore
            (Pool.map pool
               (fun x ->
                 M.incr merge_count;
                 M.observe merge_obs x;
                 x *. 2.0)
               xs));
      Alcotest.(check (float 0.0))
        (Printf.sprintf "counter sums across %d domains" domains)
        101.0 (M.value merge_count);
      match M.hist_summary merge_obs with
      | None -> Alcotest.fail "histogram lost its samples"
      | Some s ->
          Alcotest.(check int)
            (Printf.sprintf "hist count (%d domains)" domains)
            101 s.M.count;
          (* integer-valued samples: the sum is exact in any order *)
          Alcotest.(check (float 0.0))
            (Printf.sprintf "hist sum (%d domains)" domains)
            5050.0 s.M.sum;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "hist max (%d domains)" domains)
            100.0 s.M.max)
    [ 1; 2; 4 ]

let test_kind_mismatch () =
  let _ = M.counter "test.kind" in
  Alcotest.check_raises "counter reopened as gauge"
    (Invalid_argument
       "Rlc_instr.Metrics: \"test.kind\" is a counter, not a gauge")
    (fun () -> ignore (M.gauge "test.kind"))

let test_gauge_and_snapshot () =
  M.reset ();
  with_recording true (fun () ->
      let g = M.gauge "test.gauge" in
      M.set g 3.0;
      M.set g 7.5;
      Alcotest.(check (option (float 0.0)))
        "last write wins" (Some 7.5) (M.gauge_value g);
      json_check (M.json_snapshot ()))

let test_disabled_records_nothing () =
  M.reset ();
  with_recording false (fun () ->
      M.incr merge_count;
      M.observe merge_obs 1.0;
      Alcotest.(check (float 0.0)) "counter untouched" 0.0
        (M.value merge_count);
      Alcotest.(check bool) "hist untouched" true
        (M.hist_summary merge_obs = None))

(* ---------------- snapshot escaping ------------------------------- *)

let test_snapshot_escaping () =
  M.reset ();
  with_recording true (fun () ->
      (* metric names with JSON-hostile characters must escape *)
      let c = M.counter "test.esc \"quoted\" back\\slash\tname" in
      M.incr c;
      (* non-finite values: NaN is not valid JSON, so it maps to null;
         infinities round-trip as out-of-range literals *)
      M.set (M.gauge "test.esc_nan") Float.nan;
      M.set (M.gauge "test.esc_pinf") Float.infinity;
      M.set (M.gauge "test.esc_ninf") Float.neg_infinity;
      let s = M.json_snapshot () in
      json_check s;
      Alcotest.(check bool) "name is escaped" true
        (contains s "test.esc \\\"quoted\\\" back\\\\slash\\tname");
      Alcotest.(check bool) "NaN gauge is null" true
        (contains s "\"test.esc_nan\":null");
      Alcotest.(check bool) "+inf survives" true
        (contains s "\"test.esc_pinf\":1e999");
      Alcotest.(check bool) "-inf survives" true
        (contains s "\"test.esc_ninf\":-1e999"))

(* ---------------- the JSON printer -------------------------------- *)

module Jsonv = Rlc_instr.Jsonv

(* Random trees over every corner the printer must keep exact: finite
   floats at any magnitude, integers at and past 1e15 (where the plain
   integer form stops), subnormals and the infinities; strings with
   quotes, backslashes, control bytes and bytes >= 0x80; empty and
   nested lists and objects.  NaN has no JSON form and is checked
   apart. *)
let json_gen =
  let open QCheck2.Gen in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let number =
    oneof
      [
        finite;
        map (fun k -> 1e15 +. float_of_int k) nat;
        map (fun k -> Float.ldexp (float_of_int k) 40) int;
        map
          (fun m -> Float.ldexp (float_of_int m) (-1074))
          (int_bound 1_000_000);
        oneofl [ infinity; neg_infinity; 0.0; -0.0; Float.min_float ];
      ]
  in
  let byte =
    oneof
      [
        oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127';
                 '\128'; '\255' ];
        char;
      ]
  in
  let text = string_size ~gen:byte (int_bound 10) in
  let leaf =
    oneof
      [
        pure Jsonv.Null;
        map (fun b -> Jsonv.Bool b) bool;
        map (fun v -> Jsonv.Num v) number;
        map (fun s -> Jsonv.Str s) text;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun l -> Jsonv.List l)
                   (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map
                   (fun kvs -> Jsonv.Obj kvs)
                   (list_size (int_bound 4) (pair text (self (depth - 1)))) );
             ])

let test_encode_round_trip =
  QCheck2.Test.make ~name:"parse (encode v) = Ok v" ~count:2000
    ~print:Jsonv.encode json_gen (fun v ->
      Jsonv.parse (Jsonv.encode v) = Ok v)

let test_encode_nan () =
  Alcotest.(check string) "nan is null" "[null,1e999,-1e999]"
    (Jsonv.encode (Jsonv.List [ Jsonv.Num Float.nan; Jsonv.Num infinity;
                                Jsonv.Num neg_infinity ]));
  Alcotest.(check bool) "and parses back as null" true
    (Jsonv.parse (Jsonv.encode (Jsonv.Num Float.nan)) = Ok Jsonv.Null)

(* The snapshot's bytes are what BENCH files and rlcstat read, so they
   are pinned: a counter, a gauge, a histogram and an escaped name. *)
let test_snapshot_golden () =
  M.reset ();
  with_recording true (fun () ->
      M.add (M.counter "golden.counter") 3.0;
      M.set (M.gauge "golden.gauge") 0.1;
      let h = M.hist "golden.hist" in
      List.iter (M.observe h) [ 1e-6; 2.5e-3; 0.75; 42.0 ];
      M.incr (M.counter "golden \"esc\"\\\t\x01\xc3\xa9");
      Alcotest.(check string) "snapshot bytes"
        {|{"golden \"esc\"\\\t\u0001é":1,"golden.counter":3,"golden.gauge":0.10000000000000001,"golden.hist":{"count":4,"sum":42.752501000000002,"mean":10.688125250000001,"min":9.9999999999999995e-07,"p50":0.00390625,"p95":42,"max":42}}|}
        (M.json_snapshot ()))

(* ---------------- histogram quantile edges ------------------------ *)

let test_hist_quantile_edges () =
  M.reset ();
  with_recording true (fun () ->
      let h = M.hist "test.hq_edges" in
      (* empty histogram: no quantiles... *)
      Alcotest.(check bool) "empty yields None" true
        (M.hist_quantiles h [| 0.5 |] = None);
      (* ...but the quantile arguments are still validated *)
      (match M.hist_quantiles h [| 1.5 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "q > 1 must raise even on an empty histogram");
      (match M.hist_quantiles h [| -0.1 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "q < 0 must raise even on an empty histogram");
      (* a single observation is every quantile at once *)
      M.observe h 3.0;
      (match M.hist_quantiles h [| 0.0; 1.0 |] with
      | Some qs ->
          Alcotest.(check int) "two edges back" 2 (Array.length qs);
          Alcotest.(check (float 0.0)) "q0 and q1 share the bucket" qs.(0)
            qs.(1);
          Alcotest.(check bool) "edge covers the observation" true
            (qs.(0) >= 3.0)
      | None -> Alcotest.fail "single observation must yield quantiles");
      (* unsorted and duplicate requests map independently, in the
         caller's order *)
      M.observe h 1000.0;
      match M.hist_quantiles h [| 1.0; 0.0; 1.0 |] with
      | Some qs ->
          Alcotest.(check (float 0.0)) "duplicates agree" qs.(0) qs.(2);
          Alcotest.(check bool) "p100 at or above p0" true (qs.(0) >= qs.(1));
          Alcotest.(check bool) "p100 covers the larger value" true
            (qs.(0) >= 1000.0)
      | None -> Alcotest.fail "populated histogram must yield quantiles")

(* A bucket's upper edge may lie above every sample: three samples of
   3.0 fall in the (2, 4] bucket, and the quantiles must report 3.0,
   never the edge 4.0.  The empty-JSON half checks that a reset
   registry snapshots to nothing. *)
let test_hist_quantile_clamp () =
  M.reset ();
  with_recording true (fun () ->
      let h = M.hist "test.hq_clamp" in
      for _ = 1 to 3 do
        M.observe h 3.0
      done;
      (match M.hist_quantiles h [| 0.5; 0.95; 1.0 |] with
      | Some qs ->
          Array.iter (Alcotest.(check (float 0.0)) "quantile = 3.0" 3.0) qs
      | None -> Alcotest.fail "populated histogram must yield quantiles");
      match M.hist_summary h with
      | Some s ->
          Alcotest.(check (float 0.0)) "summary p50" 3.0 s.M.p50;
          Alcotest.(check (float 0.0)) "summary p95" 3.0 s.M.p95
      | None -> Alcotest.fail "populated histogram must summarise");
  M.reset ();
  Alcotest.(check string) "reset registry snapshots empty" "{}"
    (M.json_snapshot ())

(* ---------------- recording never changes results ----------------- *)

let step_ladder segments =
  let open Rlc_circuit in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground
    (Stimulus.Step { v0 = 0.0; v1 = 1.0; t_delay = 0.0; t_rise = 20e-12 });
  let far = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12; length = 0.011; segments }
    ~from_node:src ~to_node:far;
  (nl, far)

let fixed_waveform ~recording =
  let open Rlc_circuit in
  with_recording recording (fun () ->
      let nl, far = step_ladder 12 in
      let r =
        Transient.simulate nl ~t_end:1e-9 ~dt:1e-12
          ~probes:[ Transient.Node_v far ]
      in
      Array.to_list
        (Rlc_waveform.Waveform.values (Transient.get r (Transient.Node_v far))))

let adaptive_waveform ~recording =
  let open Rlc_circuit in
  with_recording recording (fun () ->
      let nl, far = step_ladder 12 in
      let r =
        Transient.simulate_adaptive nl ~t_end:1e-9 ~dt_max:1e-11
          ~probes:[ Transient.Node_v far ]
      in
      Array.to_list
        (Rlc_waveform.Waveform.values (Transient.get r (Transient.Node_v far))))

let test_fixed_identity () =
  check_bits "fixed step"
    (fixed_waveform ~recording:false)
    (fixed_waveform ~recording:true)

let test_adaptive_identity () =
  check_bits "adaptive"
    (adaptive_waveform ~recording:false)
    (adaptive_waveform ~recording:true)

(* ---------------- spans + trace export ---------------- *)

let burn () = ignore (Sys.opaque_identity (Array.init 512 float_of_int))

let test_span_nesting_and_trace () =
  M.reset ();
  let was = Control.enabled () in
  Journal.start ();
  Span.with_ "outer" (fun () ->
      Span.with_ "inner" (fun () -> burn ());
      Span.with_ "inner" (fun () -> burn ());
      burn ());
  Journal.stop ();
  Control.set_enabled was;
  Alcotest.(check bool) "capture is off again" false (Journal.capturing ());
  (* aggregation tree: inner nests under outer and merged its calls *)
  let outer =
    match List.find_opt (fun t -> t.Span.name = "outer") (Span.trees ()) with
    | Some t -> t
    | None -> Alcotest.fail "no 'outer' root span"
  in
  Alcotest.(check int) "outer called once" 1 outer.Span.calls;
  (match outer.Span.children with
  | [ inner ] ->
      Alcotest.(check string) "child name" "inner" inner.Span.name;
      Alcotest.(check int) "inner calls merged" 2 inner.Span.calls;
      Alcotest.(check bool) "child time within parent" true
        (inner.Span.total_s <= outer.Span.total_s +. 1e-9)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one child of 'outer', got %d"
           (List.length l)));
  (* one span event per completed span, rendered as loadable JSON
     containing both span names *)
  let events = Journal.events () in
  Alcotest.(check int) "three span events" 3
    (List.length (List.filter (fun e -> e.Journal.name = "span") events));
  let s = Trace.to_string events in
  json_check s;
  Alcotest.(check bool) "trace mentions traceEvents" true
    (contains s "\"traceEvents\"");
  Alcotest.(check bool) "trace mentions outer" true (contains s "\"outer\"");
  Alcotest.(check bool) "trace mentions inner" true (contains s "\"inner\"");
  Alcotest.(check int) "nothing dropped" 0 (Journal.dropped ());
  (* the dump must render without raising *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Control.dump ~ppf ();
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "dump shows span table" true
    (contains (Buffer.contents buf) "outer")

let test_unbalanced_exit_is_noop () =
  with_recording true (fun () ->
      Span.exit ();
      (* still healthy afterwards *)
      Span.with_ "after-noise" (fun () -> ()));
  Alcotest.(check bool) "trees still readable" true
    (List.length (Span.trees ()) >= 0)

(* ---------------- disabled-path overhead smoke -------------------- *)

let test_disabled_overhead_smoke () =
  with_recording false (fun () ->
      let c = M.counter "test.overhead" in
      let t = Rlc_instr.Timer.start () in
      for _ = 1 to 5_000_000 do
        M.incr c
      done;
      let s = Rlc_instr.Timer.elapsed_s t in
      (* ~2 ns/call on any recent machine; 1 s is a liberal ceiling
         that only catches the disabled path growing real work *)
      Alcotest.(check bool)
        (Printf.sprintf "5M disabled incrs in %.3fs < 1s" s)
        true (s < 1.0))

let test_timer () =
  let r, s = Rlc_instr.Timer.time (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 r;
  Alcotest.(check bool) "non-negative duration" true (s >= 0.0)

(* ---------------- Transient.Stats ---------------- *)

let test_transient_stats () =
  let open Rlc_circuit in
  M.reset ();
  let nl, far = step_ladder 10 in
  let r =
    with_recording true (fun () ->
        Transient.simulate_adaptive
          ~config:{ Transient.Config.default with rtol = 1e-4 }
          nl ~t_end:1e-9 ~dt_max:1e-11
          ~probes:[ Transient.Node_v far ])
  in
  let s = Transient.stats r in
  Alcotest.(check int) "steps" (Transient.steps_taken r) s.Transient.Stats.steps;
  (* the run published its counters to the registry *)
  Alcotest.(check (float 0.0))
    "registry saw the steps"
    (float_of_int s.Transient.Stats.steps)
    (M.value (M.counter "transient.steps"));
  Alcotest.(check (float 0.0))
    "registry saw the rejections"
    (float_of_int s.Transient.Stats.rejected_steps)
    (M.value (M.counter "transient.rejected_steps"))

let () =
  Alcotest.run "rlc_instr"
    [
      ( "registry",
        [
          Alcotest.test_case "merge across domains" `Quick test_registry_merge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge + json snapshot" `Quick
            test_gauge_and_snapshot;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "snapshot escaping" `Quick
            test_snapshot_escaping;
          Alcotest.test_case "hist quantiles clamp to [min, max]" `Quick
            test_hist_quantile_clamp;
          Alcotest.test_case "hist quantile edges" `Quick
            test_hist_quantile_edges;
          Alcotest.test_case "snapshot golden bytes" `Quick
            test_snapshot_golden;
        ] );
      ( "jsonv",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
            test_encode_round_trip;
          Alcotest.test_case "nan encodes as null" `Quick test_encode_nan;
        ] );
      ( "identity",
        [
          Alcotest.test_case "fixed step" `Quick test_fixed_identity;
          Alcotest.test_case "adaptive" `Quick test_adaptive_identity;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting + trace export" `Quick
            test_span_nesting_and_trace;
          Alcotest.test_case "unbalanced exit" `Quick
            test_unbalanced_exit_is_noop;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path" `Quick
            test_disabled_overhead_smoke;
          Alcotest.test_case "timer" `Quick test_timer;
        ] );
      ( "transient stats",
        [ Alcotest.test_case "stats record" `Quick test_transient_stats ]
      );
    ]
