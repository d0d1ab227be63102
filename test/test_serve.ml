(* Tests for the serving layer: structural hashing (value-blind,
   insertion-order-independent, topology-sensitive), the job protocol
   (malformed lines become per-job errors, never a crash), the
   compiled-deck cache (hits on value-only variants, alias safety, LRU
   eviction, zero repivot fallbacks on value-only sweeps), and the
   cache hooks themselves (Dc ?assembly/?symbolic, Whatif
   ?assembly/?symbolic, Transient plan_hint with and without a
   companion symbolic, cengine ?symbolic all bitwise-neutral). *)

open Rlc_circuit
open Rlc_numerics
module M = Rlc_instr.Metrics
module Control = Rlc_instr.Control
module Pool = Rlc_parallel.Pool
module Protocol = Rlc_serve.Protocol
module Deck_cache = Rlc_serve.Deck_cache
module Service = Rlc_serve.Service

let with_recording on f =
  let was = Control.enabled () in
  Control.set_enabled on;
  Fun.protect ~finally:(fun () -> Control.set_enabled was) f

let check_bits name expected actual =
  Alcotest.(check (array int64))
    name
    (Array.map Int64.bits_of_float expected)
    (Array.map Int64.bits_of_float actual)

(* ---------------- deck generators ---------------------------------- *)

(* An RC grid as SPICE text — large enough that Solver.plan picks the
   sparse backend, so the value-only sweep really exercises symbolic
   reuse.  [scale] perturbs values only; the structure is fixed. *)
let grid_deck ?(scale = 1.0) n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "* rc grid\nV1 n_0_0 0 DC 1\n";
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if c + 1 < n then
        Printf.bprintf b "Rh%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c r (c + 1)
          (10.0 *. scale);
      if r + 1 < n then
        Printf.bprintf b "Rv%d_%d n_%d_%d n_%d_%d %.6g\n" r c r c (r + 1) c
          (12.0 *. scale);
      Printf.bprintf b "C%d_%d n_%d_%d 0 %.6gp\n" r c r c (0.5 *. scale)
    done
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let divider_deck r1 =
  Printf.sprintf "Vs in 0 DC 1\nR1 in out %s\nR2 out 0 1k\n.end" r1

let job id query deck = Printf.sprintf "%s %s | %s" id query
    (Protocol.escape_deck deck)

let run_lines ?config lines =
  let svc = Service.create ?config () in
  (Service.process_lines svc lines, svc)

(* ---------------- structural hash / signature ---------------------- *)

let parse text = (Parser.parse_string text).Parser.netlist

let test_hash_value_blind () =
  let a = parse (divider_deck "1k") and b = parse (divider_deck "9.9k") in
  Alcotest.(check string)
    "value-only edit keeps the hash" (Netlist.structural_hash a)
    (Netlist.structural_hash b);
  Alcotest.(check string)
    "and the signature" (Netlist.structural_signature a)
    (Netlist.structural_signature b);
  let g = parse (grid_deck 6) and g' = parse (grid_deck ~scale:3.7 6) in
  Alcotest.(check string)
    "grid value perturbation keeps the hash" (Netlist.structural_hash g)
    (Netlist.structural_hash g')

let test_hash_topology_sensitive () =
  let base = parse (divider_deck "1k") in
  let variants =
    [
      ("extra element", "Vs in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\nC1 out 0 1p\n.end");
      ("rewired", "Vs in 0 DC 1\nR1 in out 1k\nR2 in 0 1k\n.end");
      ("kind change", "Vs in 0 DC 1\nC1 in out 1k\nR2 out 0 1k\n.end");
      ("renamed node", "Vs in 0 DC 1\nR1 in mid 1k\nR2 mid 0 1k\n.end");
    ]
  in
  List.iter
    (fun (what, text) ->
      if
        String.equal
          (Netlist.structural_hash base)
          (Netlist.structural_hash (parse text))
      then Alcotest.failf "%s should change the structural hash" what)
    variants

let test_hash_order_independent () =
  let a = parse "Vs in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.end" in
  let b = parse "R2 out 0 1k\nR1 in out 1k\nVs in 0 DC 1\n.end" in
  Alcotest.(check string)
    "permuted cards hash equal" (Netlist.structural_hash a)
    (Netlist.structural_hash b);
  if
    String.equal
      (Netlist.structural_signature a)
      (Netlist.structural_signature b)
  then
    Alcotest.fail
      "permuted cards renumber the nodes: signatures must differ \
       (the cache serves them as aliases, not hits)"

(* ---------------- protocol ----------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse_job_line "  # comment" with
  | Protocol.Blank -> ()
  | _ -> Alcotest.fail "comment line should be Blank");
  (match Protocol.parse_job_line "" with
  | Protocol.Blank -> ()
  | _ -> Alcotest.fail "empty line should be Blank");
  (match Protocol.parse_job_line "j1 dc out | @some/deck.sp" with
  | Protocol.Job
      { id = "j1"; query = Protocol.Q_dc { node = "out" };
        deck = Protocol.Deck_file "some/deck.sp" } -> ()
  | _ -> Alcotest.fail "dc @file job should parse");
  (match Protocol.parse_job_line "j2 tran out 10p 1n | R1 a 0 1\\nfoo" with
  | Protocol.Job { query = Protocol.Q_tran { dt; t_end; _ };
                   deck = Protocol.Deck_inline text; _ } ->
      Alcotest.(check (float 1e-22)) "suffixed dt" 1e-11 dt;
      Alcotest.(check (float 1e-18)) "suffixed t_end" 1e-9 t_end;
      Alcotest.(check string) "deck unescaped" "R1 a 0 1\nfoo" text
  | _ -> Alcotest.fail "tran job should parse");
  let malformed line =
    match Protocol.parse_job_line line with
    | Protocol.Malformed { id; message } -> (id, message)
    | _ -> Alcotest.failf "%S should be malformed" line
  in
  let _, m = malformed "j3 dc out" in
  Alcotest.(check bool) "missing bar" true
    (String.length m > 0);
  (match malformed "j4 bogus out | R1 a 0 1" with
  | "j4", m when String.length m > 0 -> ()
  | id, _ -> Alcotest.failf "id %S should be j4" id);
  ignore (malformed "j5 ac out 0 1e6 1e9 | R1 a 0 1");
  ignore (malformed "j6 delay out 1.5 1p 1n | R1 a 0 1");
  ignore (malformed "j7 dc out |   ");
  let text = "line1\nline2\\with\\backslash\n" in
  Alcotest.(check string)
    "escape round-trip" text
    (match Protocol.parse_job_line ("j8 dc x | " ^ Protocol.escape_deck text)
     with
    | Protocol.Job { deck = Protocol.Deck_inline t; _ } -> t
    | _ -> "<parse failed>")

(* ---------------- service: malformed input never aborts ------------ *)

let test_service_malformed () =
  let lines =
    [
      job "good1" "dc out" (divider_deck "1k");
      "broken-no-bar dc out";
      job "bad-deck" "dc out" "R1 in out\n.end";
      "weird frobnicate out | R1 a 0 1";
      "# a comment in the middle";
      job "bad-node" "dc nosuch" (divider_deck "1k");
      job "good2" "dc out" (divider_deck "3k");
      "singular dc out | Isrc a 0 DC 1\nC1 a 0 1p\n.end";
    ]
  in
  let results, svc = run_lines lines in
  Alcotest.(check int) "one result per non-blank line" 7
    (List.length results);
  let starts_ok l = String.length l > 3 && String.sub l 0 3 = "ok " in
  let ids =
    List.map (fun l -> List.nth (String.split_on_char ' ' l) 1) results
  in
  Alcotest.(check (list string))
    "results in submission order"
    [ "good1"; "broken-no-bar"; "bad-deck"; "weird"; "bad-node"; "good2";
      "singular" ]
    ids;
  List.iteri
    (fun i l ->
      let expect_ok = i = 0 || i = 5 in
      Alcotest.(check bool)
        (Printf.sprintf "line %d ok/err" i)
        expect_ok (starts_ok l))
    results;
  Alcotest.(check int) "error count" 5 (Service.summary svc).Service.errors

(* A sparse-planned grid made singular by a second voltage source in
   parallel with V1: artifact building in the prepare phase hits the
   singular factorisation, which must become the job's own [err] line —
   the same cold and warm — and leave the rest of the stream answered. *)
let test_service_singular_grid () =
  let deck =
    let g = grid_deck 24 in
    let body = String.sub g 0 (String.length g - String.length ".end\n") in
    body ^ "V2 n_0_0 0 DC 2\n.end\n"
  in
  Alcotest.(check bool) "singular grid plans sparse" true
    ((Assembly.of_netlist (parse deck)).Assembly.plan.Solver.choice
    = Solver.Sparse_lu);
  let lines =
    [ job "sing" "dc n_5_5" deck; job "next" "dc out" (divider_deck "1k") ]
  in
  let svc = Service.create () in
  let cold = Service.process_lines svc lines in
  let warm = Service.process_lines svc lines in
  match cold with
  | [ err; next ] ->
      Alcotest.(check bool) ("singular dc is an err line: " ^ err) true
        (String.length err > 8 && String.sub err 0 8 = "err sing");
      Alcotest.(check bool) ("next job answered: " ^ next) true
        (String.length next > 7 && String.sub next 0 7 = "ok next");
      Alcotest.(check (list string)) "warm stream = cold stream" cold warm
  | _ -> Alcotest.failf "expected two result lines, got %d" (List.length cold)

let test_service_empty_input () =
  let results, svc = run_lines [] in
  Alcotest.(check (list string)) "no lines, no results" [] results;
  let results, _ = run_lines [ ""; "# only comments"; "   " ] in
  Alcotest.(check (list string)) "comments only, no results" [] results;
  Alcotest.(check int) "no jobs counted" 0 (Service.summary svc).Service.jobs

(* ---------------- service: cache behavior -------------------------- *)

(* A value-only sweep over one structural family must hit the cache on
   every deck after the first and never abandon the replayed pivot
   sequence: the repivot fallback counter and the service's symbolic
   refresh counter both stay at zero (a nonzero delta is how cache
   poisoning would become visible). *)
let test_value_only_sweep_no_repivot () =
  with_recording true (fun () ->
      let m_repivot = M.counter "solver.sparse.repivot" in
      let before = M.value m_repivot in
      let scales = [ 1.0; 1.02; 0.97; 1.3; 0.5; 2.0; 1.001; 0.85 ] in
      let lines =
        List.mapi
          (fun i s ->
            job (Printf.sprintf "dc%d" i) "dc n_5_5"
              (grid_deck ~scale:s 24))
          scales
        @ List.mapi
            (fun i s ->
              job (Printf.sprintf "ac%d" i) "ac n_5_5 3 1e6 1e9"
                (grid_deck ~scale:s 24))
            scales
      in
      let results, svc = run_lines lines in
      Alcotest.(check int) "all jobs answered" (List.length lines)
        (List.length results);
      List.iter
        (fun l ->
          Alcotest.(check bool)
            ("ok: " ^ l)
            true
            (String.length l > 3 && String.sub l 0 3 = "ok "))
        results;
      let asm = Assembly.of_netlist (parse (grid_deck 24)) in
      Alcotest.(check bool)
        "grid-24 plans sparse (the sweep must exercise symbolic reuse)"
        true
        (asm.Assembly.plan.Solver.choice = Solver.Sparse_lu);
      let stats = Service.cache_stats svc in
      Alcotest.(check int) "one structural family" 1
        stats.Deck_cache.entries;
      Alcotest.(check int) "one miss" 1 stats.Deck_cache.misses;
      Alcotest.(check int) "everything else hits"
        (List.length lines - 1)
        stats.Deck_cache.hits;
      Alcotest.(check int) "no aliases" 0 stats.Deck_cache.aliases;
      Alcotest.(check (float 0.0))
        "zero repivot fallbacks during the value-only sweep" before
        (M.value m_repivot);
      Alcotest.(check int) "zero symbolic refreshes" 0
        (Service.summary svc).Service.resyms)

let test_alias_not_poisoned () =
  let a = "Vs in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.end" in
  let permuted = "R2 out 0 1k\nR1 in out 1k\nVs in 0 DC 1\n.end" in
  let results, svc =
    run_lines [ job "orig" "dc out" a; job "perm" "dc out" permuted ]
  in
  let stats = Service.cache_stats svc in
  Alcotest.(check int) "permuted deck is an alias, not a hit" 1
    stats.Deck_cache.aliases;
  Alcotest.(check int) "no false hits" 0 stats.Deck_cache.hits;
  let payload l =
    match String.split_on_char ' ' l with
    | _ok :: _id :: rest -> String.concat " " rest
    | _ -> l
  in
  match results with
  | [ r1; r2 ] ->
      Alcotest.(check string) "same voltage either way" (payload r1)
        (payload r2)
  | _ -> Alcotest.fail "expected two results"

let test_lru_eviction () =
  let config = { Service.default_config with cache_capacity = 2 } in
  let families =
    [ divider_deck "1k"; grid_deck 4; "Vs a 0 DC 1\nR1 a 0 2k\n.end" ]
  in
  let lines = List.mapi (fun i d -> job (Printf.sprintf "f%d" i) "dc 0" d)
      families in
  let _, svc = run_lines ~config lines in
  let stats = Service.cache_stats svc in
  Alcotest.(check int) "bounded at capacity" 2 stats.Deck_cache.entries;
  Alcotest.(check int) "one eviction" 1 stats.Deck_cache.evictions;
  (* capacity 0 disables caching entirely *)
  let config = { Service.default_config with cache_capacity = 0 } in
  let lines = List.init 3 (fun i ->
      job (Printf.sprintf "r%d" i) "dc out" (divider_deck "1k")) in
  let _, svc = run_lines ~config lines in
  let stats = Service.cache_stats svc in
  Alcotest.(check int) "nothing cached" 0 stats.Deck_cache.entries;
  Alcotest.(check int) "no hits" 0 stats.Deck_cache.hits

(* ---------------- service: determinism ----------------------------- *)

let mixed_lines =
  [
    job "d0" "dc n_3_3" (grid_deck 8);
    job "d1" "dc n_3_3" (grid_deck ~scale:1.1 8);
    job "a0" "ac n_3_3 4 1e6 1e9" (grid_deck 8);
    job "a1" "ac n_3_3 4 1e6 1e9" (grid_deck ~scale:0.9 8);
    job "t0" "tran out 50p 2n" "Vs in 0 PULSE(0 1 0 20p 20p 1n 2n)\nR1 in out 1k\nC1 out 0 100f\n.end";
    job "y0" "delay out 0.5 50p 2n" "Vs in 0 PULSE(0 1 0 20p 20p 1n 2n)\nR1 in out 1k\nC1 out 0 120f\n.end";
    job "e0" "dc nowhere" (divider_deck "1k");
  ]

(* transient, delay and delay-sens jobs on a sparse grid at two value
   scales: the second scale replays the first's companion and DC
   symbolics once they are cached *)
let grid_lines =
  List.concat_map
    (fun (tag, scale) ->
      let deck = grid_deck ~scale 24 in
      [
        job ("t" ^ tag) "tran n_23_23 100p 5n" deck;
        job ("y" ^ tag) "delay n_23_23 0.5 100p 5n" deck;
        job ("s" ^ tag) "delay-sens n_23_23 0.5 Rh0_0:r Rv0_0:r C1_1:c" deck;
      ])
    [ ("0", 1.0); ("1", 1.1) ]

let test_cold_warm_identical () =
  let svc = Service.create () in
  let cold = Service.process_lines svc mixed_lines in
  let warm = Service.process_lines svc mixed_lines in
  Alcotest.(check (list string))
    "warm replay is bit-identical to the cold pass" cold warm;
  let stats = Service.cache_stats svc in
  Alcotest.(check bool) "warm pass actually hit the cache" true
    (stats.Deck_cache.hits > List.length mixed_lines - 2);
  (* and a fresh service agrees with both *)
  let fresh, _ = run_lines mixed_lines in
  Alcotest.(check (list string)) "fresh service agrees" cold fresh

let test_grid_cold_warm_identical () =
  let svc = Service.create () in
  let cold = Service.process_lines svc grid_lines in
  List.iter
    (fun l ->
      if not (String.starts_with ~prefix:"ok " l) || String.length l < 20
      then Alcotest.failf "job failed: %s" l)
    cold;
  with_recording true (fun () ->
      let count name = M.value (M.counter name) in
      let analyze = count "solver.sparse.analyze"
      and canalyze = count "solver.sparse.canalyze" in
      let warm = Service.process_lines svc grid_lines in
      Alcotest.(check (list string))
        "warm grid pass is bit-identical to the cold pass" cold warm;
      Alcotest.(check (float 0.0))
        "a warm pass does no sparse analysis" analyze
        (count "solver.sparse.analyze");
      Alcotest.(check (float 0.0))
        "a warm pass does no complex sparse analysis" canalyze
        (count "solver.sparse.canalyze"));
  Alcotest.(check int) "no symbolic refreshes" 0
    (Service.summary svc).Service.resyms;
  let fresh, _ = run_lines grid_lines in
  Alcotest.(check (list string)) "fresh service agrees" cold fresh

let test_domain_count_invariance () =
  let sequential, _ = run_lines mixed_lines in
  let pool = Pool.create ~domains:4 () in
  let config = { Service.default_config with pool; batch_size = 3 } in
  let parallel, _ = run_lines ~config mixed_lines in
  Alcotest.(check (list string))
    "4-domain stream equals sequential stream" sequential parallel;
  let sequential, _ = run_lines grid_lines in
  let parallel, _ = run_lines ~config grid_lines in
  Alcotest.(check (list string))
    "4-domain grid stream equals sequential stream" sequential parallel

(* the exact-text memo is a pure shortcut: disabling it (capacity 0)
   must not change a byte of the stream, warm or cold *)
let test_memo_transparent () =
  let baseline, _ = run_lines mixed_lines in
  let config = { Service.default_config with memo_capacity = 0 } in
  let svc = Service.create ~config () in
  let cold = Service.process_lines svc mixed_lines in
  let warm = Service.process_lines svc mixed_lines in
  Alcotest.(check (list string)) "memo off: cold stream unchanged"
    baseline cold;
  Alcotest.(check (list string)) "memo off: warm stream unchanged"
    baseline warm;
  (* tiny memo: evictions cycle every deck through insert/evict, still
     byte-identical *)
  let config = { Service.default_config with memo_capacity = 1 } in
  let tiny, _ = run_lines ~config mixed_lines in
  Alcotest.(check (list string)) "memo capacity 1: stream unchanged"
    baseline tiny;
  let baseline, _ = run_lines grid_lines in
  let config = { Service.default_config with memo_capacity = 0 } in
  let svc = Service.create ~config () in
  let cold = Service.process_lines svc grid_lines in
  let warm = Service.process_lines svc grid_lines in
  Alcotest.(check (list string)) "memo off: cold grid stream unchanged"
    baseline cold;
  Alcotest.(check (list string)) "memo off: warm grid stream unchanged"
    baseline warm

(* ---------------- memory: a dropped service leaves nothing -------- *)

(* live heap in MB once garbage is gone: OCaml 5.1 reports a block freed
   only a couple of major cycles after it died, so compact until the
   count stops falling *)
let live_mb () =
  let rec settle prev =
    Gc.compact ();
    let words = (Gc.quick_stat ()).Gc.live_words in
    if words >= prev then words else settle words
  in
  float_of_int (settle max_int * (Sys.word_size / 8)) /. 1048576.0

(* structurally new each time: the line and its far node are renamed *)
let fresh_line_jobs first count =
  List.init count (fun k ->
      let i = first + k in
      job (Printf.sprintf "f%d" i) (Printf.sprintf "dc far%d" i)
        (Printf.sprintf
           "V1 in 0 DC 1\nW%d in far%d r=4.4k l=1.5u c=123p len=1m seg=200\n\
            Rl far%d 0 1k\n.end\n"
           i i i))

let test_dropped_service_frees_heap () =
  let config =
    { Service.default_config with memo_capacity = 4; cache_capacity = 4 }
  in
  let run first =
    let svc = Service.create ~config () in
    let out = Service.process_lines svc (fresh_line_jobs first 100) in
    List.iter
      (fun l ->
        if not (String.starts_with ~prefix:"ok " l) then
          Alcotest.failf "job failed: %s" l)
      out
  in
  (* first use settles lazily built global state *)
  run 0;
  let before = live_mb () in
  run 100;
  let after = live_mb () in
  if after -. before > 1.0 then
    Alcotest.failf "a dropped service left %.2f MB live" (after -. before)

(* ---------------- cache hooks: bitwise neutrality ------------------ *)

let test_dc_hooks_bitwise () =
  let nl = parse (grid_deck 24) in
  let baseline = Dc.make nl in
  let asm = Assembly.of_netlist nl in
  let symbolic = Solver.symbolic_of (Assembly.factor_g asm) in
  Alcotest.(check bool) "grid-24 factors sparse" true (symbolic <> None);
  let hooked = Dc.make ~assembly:asm ?symbolic nl in
  check_bits "voltages identical through ?assembly/?symbolic"
    (Dc.voltages baseline) (Dc.voltages hooked);
  (* the refactor kept the passed symbolic: physical equality is what
     the service's poisoning detector relies on *)
  (match (symbolic, Dc.g_symbolic hooked) with
  | Some a, Some b when a == b -> ()
  | _ -> Alcotest.fail "successful refactor must share the symbolic")

let test_transient_plan_hint_bitwise () =
  let nl =
    parse "Vs in 0 PULSE(0 1 0 20p 20p 1n 2n)\nR1 in out 1k\nL1 out far 1n\nC1 far 0 100f\n.end"
  in
  let probe = Transient.Node_v (Option.get (Netlist.find_node nl "far")) in
  let run config =
    Rlc_waveform.Waveform.values
      (Transient.get
         (Transient.simulate ~config nl ~t_end:2e-9 ~dt:5e-12
            ~probes:[ probe ])
         probe)
  in
  let plain = run Transient.Config.default in
  let hinted =
    run
      {
        Transient.Config.default with
        plan_hint = Some (Transient.structure_plan nl);
      }
  in
  check_bits "plan_hint leaves the waveform bit-identical" plain hinted;
  (* a wrong-sized hint is ignored, not fatal *)
  let other = parse (grid_deck 4) in
  let mismatched =
    run
      {
        Transient.Config.default with
        plan_hint = Some (Transient.structure_plan other);
      }
  in
  check_bits "mismatched hint ignored" plain mismatched

(* The delay-sens hooks: a workspace compiled from a cached assembly
   and DC symbolic evaluates and differentiates exactly like a plain
   one, at the deck the symbolic came from and at a value variant that
   replays it. *)
let test_whatif_hooks_bitwise () =
  let base_nl = parse (grid_deck 24) in
  let base_asm = Assembly.of_netlist base_nl in
  let symbolic = Solver.symbolic_of (Assembly.factor_g base_asm) in
  Alcotest.(check bool) "grid-24 factors sparse" true (symbolic <> None);
  let sample ws nl =
    let far = Option.get (Netlist.find_node nl "n_23_23") in
    let target = Whatif.Delay far in
    let wrt =
      [|
        Whatif.param ws "Rh0_0" `R;
        Whatif.param ws "Rv0_0" `R;
        Whatif.param ws "C1_1" `C;
      |]
    in
    let set = [ (wrt.(0), 1.2 *. Whatif.base_value wrt.(0)) ] in
    Array.concat
      [
        [| Whatif.evaluate ws target; Whatif.evaluate ~set ws target |];
        Whatif.gradient ws target ~wrt;
      ]
  in
  List.iter
    (fun scale ->
      let nl = parse (grid_deck ~scale 24) in
      let assembly =
        Assembly.of_netlist ~plan:base_asm.Assembly.plan ~validate:false nl
      in
      let hooked = Whatif.compile ~assembly ?symbolic nl in
      let plain = sample (Whatif.compile nl) nl in
      if not (Array.for_all Float.is_finite plain) then
        Alcotest.failf "scale %g: delay or gradient not finite" scale;
      check_bits
        (Printf.sprintf "scale %g: hooked workspace bit-identical" scale)
        plain (sample hooked nl);
      match (symbolic, Whatif.g_symbolic hooked) with
      | Some a, Some b when a == b -> ()
      | _ -> Alcotest.failf "scale %g: the base factor must replay" scale)
    [ 1.0; 1.1 ]

(* The companion structure a run ends with carries its sparse symbolic;
   handed to a value variant it replaces every analysis with a replay
   and leaves the waveform bit-identical. *)
let test_transient_structure_bitwise () =
  let run ?hint ?scale n =
    let nl = parse (grid_deck ?scale n) in
    let far = Netlist.find_node nl (Printf.sprintf "n_%d_%d" (n - 1) (n - 1)) in
    let probe = Transient.Node_v (Option.get far) in
    let config = { Transient.Config.default with plan_hint = hint } in
    let r =
      Transient.simulate ~config nl ~t_end:5e-9 ~dt:1e-10 ~probes:[ probe ]
    in
    ( Rlc_waveform.Waveform.values (Transient.get r probe),
      Transient.final_structure r )
  in
  let _, learned = run 24 in
  Alcotest.(check bool) "grid-24 companion plans sparse" true
    (learned.Transient.plan.Solver.choice = Solver.Sparse_lu);
  Alcotest.(check bool) "the run hands back its symbolic" true
    (learned.Transient.symbolic <> None);
  let plain, _ = run ~scale:1.1 24 in
  with_recording true (fun () ->
      let analyze = M.counter "solver.sparse.analyze" in
      let before = M.value analyze in
      let hinted, ended = run ~hint:learned ~scale:1.1 24 in
      check_bits "replayed companion symbolic leaves the waveform bit-identical"
        plain hinted;
      Alcotest.(check (float 0.0)) "no analysis under the hint" before
        (M.value analyze);
      Alcotest.(check bool) "the replayed hint is handed back unchanged" true
        (ended == learned));
  (* a structure sized for another deck is ignored *)
  let plain, _ = run 6 in
  let mismatched, _ = run ~hint:learned 6 in
  check_bits "mismatched structure ignored" plain mismatched

let test_cengine_symbolic_bitwise () =
  let asm = Assembly.of_netlist (parse (grid_deck 24)) in
  let freqs = Ac.decade_grid ~points_per_decade:3 ~fstart:1e6 ~fstop:1e9 in
  let s_ref = Ac.s_of_freq freqs.(0) in
  let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
  let sweep ce =
    Array.concat
      (Array.to_list
         (Array.map
            (fun f ->
              let x =
                Assembly.cengine_solve ce ~s:(Ac.s_of_freq f) ~rhs
              in
              Array.init
                (2 * Array.length x)
                (fun i ->
                  if i mod 2 = 0 then Cx.re x.(i / 2) else Cx.im x.(i / 2)))
            freqs))
  in
  let ce1 = Assembly.cengine asm ~s_ref in
  let symbolic = Assembly.cengine_symbolic ce1 in
  Alcotest.(check bool) "engine is sparse" true (symbolic <> None);
  let ce2 = Assembly.cengine ?symbolic asm ~s_ref in
  check_bits "adopted symbolic leaves the sweep bit-identical"
    (sweep ce1) (sweep ce2)

(* ---------------- metrics quantiles -------------------------------- *)

let test_hist_quantiles () =
  with_recording true (fun () ->
      let h = M.hist "test.serve.quantiles" in
      Alcotest.(check bool) "empty hist has no quantiles" true
        (M.hist_quantiles h [| 0.5 |] = None);
      for i = 1 to 1000 do
        M.observe h (float_of_int i /. 1000.0)
      done;
      match M.hist_quantiles h [| 0.0; 0.5; 0.9; 0.99; 1.0 |] with
      | None -> Alcotest.fail "populated hist must report quantiles"
      | Some q ->
          Alcotest.(check int) "one per request" 5 (Array.length q);
          Array.iteri
            (fun i v ->
              if i > 0 && v < q.(i - 1) then
                Alcotest.failf "quantiles must be monotone (%g < %g)" v
                  q.(i - 1))
            q;
          Alcotest.(check bool) "p50 upper bound covers the median" true
            (q.(1) >= 0.5 && q.(1) <= 1.0);
          Alcotest.(check bool) "p99 >= p50" true (q.(3) >= q.(1)));
  let h = M.hist "test.serve.quantiles2" in
  with_recording true (fun () ->
      M.observe h 1.0;
      match M.hist_quantiles h [| 1.5 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "quantile outside [0,1] must raise")

let () =
  Alcotest.run "serve"
    [
      ( "structural hash",
        [
          Alcotest.test_case "value-blind" `Quick test_hash_value_blind;
          Alcotest.test_case "topology-sensitive" `Quick
            test_hash_topology_sensitive;
          Alcotest.test_case "order-independent" `Quick
            test_hash_order_independent;
        ] );
      ( "protocol",
        [ Alcotest.test_case "parse + malformed" `Quick test_protocol_parse ]
      );
      ( "service robustness",
        [
          Alcotest.test_case "malformed jobs never abort" `Quick
            test_service_malformed;
          Alcotest.test_case "empty input" `Quick test_service_empty_input;
          Alcotest.test_case "singular sparse grid" `Quick
            test_service_singular_grid;
        ] );
      ( "deck cache",
        [
          Alcotest.test_case "value-only sweep: hits, zero repivots" `Quick
            test_value_only_sweep_no_repivot;
          Alcotest.test_case "alias safety" `Quick test_alias_not_poisoned;
          Alcotest.test_case "lru + disabled cache" `Quick test_lru_eviction;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cold = warm = fresh" `Quick
            test_cold_warm_identical;
          Alcotest.test_case "domain-count invariant" `Quick
            test_domain_count_invariance;
          Alcotest.test_case "memo transparent" `Quick test_memo_transparent;
          Alcotest.test_case "grids: cold = warm = fresh, no analyses" `Quick
            test_grid_cold_warm_identical;
        ] );
      ( "memory",
        [
          Alcotest.test_case "dropped service frees its heap" `Quick
            test_dropped_service_frees_heap;
        ] );
      ( "cache hooks",
        [
          Alcotest.test_case "dc ?assembly/?symbolic" `Quick
            test_dc_hooks_bitwise;
          Alcotest.test_case "transient plan_hint" `Quick
            test_transient_plan_hint_bitwise;
          Alcotest.test_case "cengine ?symbolic" `Quick
            test_cengine_symbolic_bitwise;
          Alcotest.test_case "whatif ?assembly/?symbolic" `Quick
            test_whatif_hooks_bitwise;
          Alcotest.test_case "transient companion symbolic" `Quick
            test_transient_structure_bitwise;
        ] );
      ( "metrics",
        [ Alcotest.test_case "hist_quantiles" `Quick test_hist_quantiles ]
      );
    ]
