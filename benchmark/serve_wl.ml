(* serve-sweep and serve-fresh: a closed loop of one client sending job
   lines to an [Rlc_serve.Service] with the sequential pool, one job per
   [process_lines] call. *)

open Rlc_serve

type family = Grid of int | Ladder of int

let families = [| Grid 24; Grid 32; Grid 40; Ladder 100; Ladder 200; Ladder 400 |]
let smoke_families = [| Grid 24; Ladder 100 |]

type kind = Dc | Ac | Tran | Delay | Sens

let kinds = [| Dc; Ac; Tran; Delay; Sens |]

let kind_name = function
  | Dc -> "dc"
  | Ac -> "ac"
  | Tran -> "tran"
  | Delay -> "delay"
  | Sens -> "delay-sens"

(* The query mix, per ten jobs: dc 30%, ac 10%, tran 20%, delay 20%,
   delay-sens 20%. *)
let kind_mix = [| Dc; Dc; Dc; Ac; Tran; Tran; Delay; Delay; Sens; Sens |]

(* A value scale, log-uniform in [0.8, 1.25]. *)
let scale rng = Float.exp (Random.State.float rng (2.0 *. Float.log 1.25) -. Float.log 1.25)

type deck = { family : family; prefix : string; text : string }

(* [prefix] goes in front of every node and element name: a fresh
   prefix gives a structurally new deck with the same matrices. *)
let deck_text ~prefix ~scales family =
  let p = prefix and s i = scales.(i) in
  match family with
  | Grid n ->
      let b = Buffer.create (n * n * 64) in
      Printf.bprintf b "* rc grid\nV%s1 %sn_0_0 0 DC 1\n" p p;
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          if c + 1 < n then
            Printf.bprintf b "R%sh%d_%d %sn_%d_%d %sn_%d_%d %.6g\n" p r c p r c p r
              (c + 1) (10.0 *. s 0);
          if r + 1 < n then
            Printf.bprintf b "R%sv%d_%d %sn_%d_%d %sn_%d_%d %.6g\n" p r c p r c p
              (r + 1) c (12.0 *. s 0);
          Printf.bprintf b "C%s%d_%d %sn_%d_%d 0 %.6gp\n" p r c p r c (0.5 *. s 1)
        done
      done;
      Printf.bprintf b "R%sload %sn_%d_%d 0 %.6g\n.end\n" p p (n - 1) (n - 1)
        (1000.0 *. s 2);
      Buffer.contents b
  | Ladder segs ->
      Printf.sprintf
        "* rlc ladder\n\
         V%s1 %sin 0 DC 1\n\
         W%s1 %sin %sfar r=%.6g l=%.6gu c=%.6gp len=11m seg=%d\n\
         R%sload %sfar 0 %.6g\n\
         .end\n"
        p p p p p (4400.0 *. s 0) (1.5 *. s 1) (123.33 *. s 2) segs p p
        (1000.0 *. s 0)

let make_deck ~prefix ~scales family =
  { family; prefix; text = deck_text ~prefix ~scales family }

let query kind { family; prefix = p; _ } =
  let far =
    match family with
    | Grid n -> Printf.sprintf "%sn_%d_%d" p (n - 1) (n - 1)
    | Ladder _ -> p ^ "far"
  in
  let grid = match family with Grid _ -> true | Ladder _ -> false in
  let window = if grid then "100p 5n" else "10p 0.5n" in
  match kind with
  | Dc -> "dc " ^ far
  | Ac -> Printf.sprintf "ac %s 6 %s" far (if grid then "1e6 1e7" else "1e8 1e9")
  | Tran -> Printf.sprintf "tran %s %s" far window
  | Delay -> Printf.sprintf "delay %s 0.5 %s" far window
  | Sens ->
      Printf.sprintf "delay-sens %s 0.5 %s" far
        (if grid then Printf.sprintf "R%sh0_0:r R%sv0_0:r C%s1_1:c" p p p
         else Printf.sprintf "W%s1_seg0:r W%s1_seg0:l W%s1_c1:c" p p p)

type job = { line : string; kind : kind }

let job id kind deck =
  {
    line = Printf.sprintf "%s %s | %s" id (query kind deck) (Protocol.escape_deck deck.text);
    kind;
  }

(* Set-up jobs: every family at unit scale, every query kind once, so
   the timed jobs find each family's artifacts built. *)
let priming ~families ~fresh =
  let prefix = if fresh then "p_" else "" in
  Array.to_list families
  |> List.concat_map (fun family ->
         let deck = make_deck ~prefix ~scales:[| 1.0; 1.0; 1.0 |] family in
         Array.to_list kinds
         |> List.map (fun kind -> (job ("prime-" ^ kind_name kind) kind deck).line))

(* Jobs per family in one unit of the stream: the kind mix twice, five
   of the twenty resending an earlier deck in the sweep. *)
let per_family = 2 * Array.length kind_mix
let repeats_per_family = per_family / 4
let recent_decks = 8

(* The round's jobs: [units] units, each every family x the kind mix
   twice, shuffled, so a seed changes values and order but not the mix.
   In the sweep one job in four resends one of its family's last
   [recent_decks] decks byte for byte (the memo's share; the family's
   priming deck when none is new yet); the rest are value-only variants.
   Fresh decks carry a unique name prefix each, so no job is
   structurally known. *)
let generate ~families ~fresh ~rng ~units =
  let slots =
    Array.concat
      (List.init units (fun _ ->
           Array.concat
             (Array.to_list
                (Array.map
                   (fun family ->
                     let repeat = Array.init per_family (fun j -> j < repeats_per_family) in
                     Harness.shuffle rng repeat;
                     Array.init per_family (fun j ->
                         let kind = kind_mix.(j mod Array.length kind_mix) in
                         (family, kind, (not fresh) && repeat.(j))))
                   families))))
  in
  Harness.shuffle rng slots;
  let recent = Hashtbl.create 8 in
  Array.mapi
    (fun i (family, kind, repeat) ->
      let seen = Option.value ~default:[] (Hashtbl.find_opt recent family) in
      let deck =
        match seen with
        | _ :: _ when repeat -> List.nth seen (Random.State.int rng (List.length seen))
        | [] when repeat -> make_deck ~prefix:"" ~scales:[| 1.0; 1.0; 1.0 |] family
        | _ ->
            let scales = Array.init 3 (fun _ -> scale rng) in
            let prefix = if fresh then Printf.sprintf "x%d_" i else "" in
            let d = make_deck ~prefix ~scales family in
            Hashtbl.replace recent family (List.filteri (fun k _ -> k < recent_decks) (d :: seen));
            d
      in
      job (Printf.sprintf "j%d" i) kind deck)
    slots

let serve_one svc line =
  match Service.process_lines svc [ line ] with
  | [ r ] -> r
  | rs -> failwith (Printf.sprintf "%d result lines for one job" (List.length rs))

let primed_service priming ~round:_ =
  let svc = Service.create () in
  List.iter
    (fun l ->
      let r = serve_one svc l in
      if Verify.is_err r then failwith ("priming job failed: " ^ r))
    priming;
  svc

(* Job rates (jobs/s) on the reference machine; see README.md. *)
let per_s ~fresh = if fresh then 54.0 else 105.0

(* Pass B: the layer replay of the same rounds.  Per-layer values and the
   share of pass A's job time the layer spans account for. *)
let replay_layers cfg ~priming ~jobs ~m ~(pass_a : Harness.window) lines_a =
  let lines_b = Array.make m "" in
  Spans.clear ();
  let setup ~round =
    let rp = Replay.create () in
    List.iter (fun l -> ignore (Replay.job rp l)) priming;
    (rp, round)
  in
  let op (rp, round) i =
    Spans.set_job (if round >= 0 then (round * m) + i else -1);
    let l = Replay.job rp jobs.(i).line in
    Spans.set_job (-1);
    l
  in
  ignore (Harness.window cfg ~setup ~m ~op ~check:(fun ~round:_ i l -> lines_b.(i) <- l));
  let spans = Spans.all () in
  Option.iter (fun path -> Spans.write_chrome path spans) cfg.Harness.trace_out;
  Spans.clear ();
  let mismatched = ref 0 in
  Array.iteri
    (fun i a ->
      if not (String.equal a lines_b.(i)) then begin
        incr mismatched;
        if !mismatched <= 3 then
          Printf.eprintf "  replay differs:\n    service %s\n    replay  %s\n" a lines_b.(i)
      end)
    lines_a;
  (* each op's layer times are its best over the rounds, like its job
     time *)
  let rounds = Harness.rounds cfg in
  let layer = Spans.by_name_and_job spans ~jobs:(rounds * m) in
  let best times = Stats.sum (Harness.best_of_rounds ~rounds ~m times) in
  let time name = match Hashtbl.find_opt layer name with Some (_, t) -> best t | None -> 0.0 in
  let calls_per_round name =
    match Hashtbl.find_opt layer name with
    | Some (c, _) -> float_of_int !c /. float_of_int rounds
    | None -> 0.0
  in
  let ms_per_job names =
    List.fold_left (fun acc n -> acc +. time n) 0.0 names /. float_of_int m *. 1e3
  in
  let per_call scale name = Harness.ratio (time name) (calls_per_round name) *. scale in
  let all_layers = Array.make (rounds * m) 0.0 in
  Hashtbl.iter
    (fun _ (_, t) -> Array.iteri (fun j x -> all_layers.(j) <- all_layers.(j) +. x) t)
    layer;
  let attributed = best all_layers in
  ( !mismatched,
    [
      ("protocol.parse_us", per_call 1e6 "protocol.parse");
      ("parser.parse_ms", ms_per_job [ "parser.parse" ]);
      ("netlist.key_ms", ms_per_job [ "netlist.key" ]);
      ("assembly.stamp_ms", ms_per_job [ "assembly.stamp" ]);
      ("assembly.plan_ms", ms_per_job [ "assembly.plan"; "transient.structure_plan" ]);
      ("solver.analyze_ms", ms_per_job [ "solver.analyze" ]);
      ("dc.solve_ms", ms_per_job [ "dc.solve" ]);
      ("ac.engine_ms", ms_per_job [ "ac.engine" ]);
      ("ac.point_us", per_call 1e6 "ac.point");
      ("transient.sim_ms", per_call 1e3 "transient.sim");
      ("measure.delay_us", per_call 1e6 "measure.delay");
      ("whatif.compile_ms", per_call 1e3 "whatif.compile");
      ("whatif.evaluate_ms", per_call 1e3 "whatif.evaluate");
      ("whatif.gradient_ms", per_call 1e3 "whatif.gradient");
      ("protocol.render_us", per_call 1e6 "protocol.render");
      ("serve.attributed_frac", attributed /. Stats.sum pass_a.best);
    ] )

let run ~fresh (cfg : Harness.config) =
  let families = if cfg.smoke then smoke_families else families in
  let unit = per_family * Array.length families in
  let units = Int.max 1 (Harness.round_ops cfg ~per_s:(per_s ~fresh) ~smoke:unit / unit) in
  let jobs = generate ~families ~fresh ~rng:(Harness.rng cfg (if fresh then 2 else 1)) ~units in
  let jobs = if cfg.smoke then Array.sub jobs 0 12 else jobs in
  let m = Array.length jobs in
  let priming = priming ~families ~fresh in
  let executions = (Harness.rounds cfg + 1) * m in
  let failed = ref 0 in
  let fail n what =
    failed := !failed + n;
    prerr_endline ("  failed: " ^ what)
  in
  (* the warm-up round's stream; every timed round must reproduce it *)
  let lines = Array.make m "" in
  let check ~round i l =
    if round < 0 then lines.(i) <- l
    else if not (String.equal l lines.(i)) then fail 1 ("round differs: " ^ l)
  in
  let op svc i = serve_one svc jobs.(i).line in
  let w = Harness.window cfg ~setup:(primed_service priming) ~m ~op ~check in
  (* a seeded one-in-ten sample of the jobs (all of them in smoke mode)
     is re-run on a service with both cache levels off *)
  let reference =
    Service.create
      ~config:{ Service.default_config with cache_capacity = 0; memo_capacity = 0 }
      ()
  in
  let sample = Harness.rng cfg 3 and checked = ref 0 in
  Array.iteri
    (fun i l ->
      let ok =
        if cfg.smoke || Random.State.int sample 10 = 0 then begin
          incr checked;
          Verify.serve_line_ok ~reference:(serve_one reference jobs.(i).line) l
        end
        else not (Verify.is_err l)
      in
      (* a wrong job is wrong in every round *)
      if not ok then fail (Harness.rounds cfg + 1) l)
    lines;
  let notes =
    [
      Printf.sprintf "  %d jobs per round; %d of them verified against a cache-disabled service"
        m !checked;
    ]
  in
  let layers, notes =
    if not cfg.trace then ([], notes)
    else begin
      (* pass A: the same rounds, the library recording *)
      let lines_a = Array.make m "" in
      let wa =
        Harness.traced (fun () ->
            Harness.window cfg ~setup:(primed_service priming) ~m ~op
              ~check:(fun ~round:_ i l -> lines_a.(i) <- l))
      in
      let c = Harness.counter in
      let per_job x = x /. float_of_int executions in
      let memo_hit = c "serve.memo.hit" and memo_miss = c "serve.memo.miss" in
      let hit = c "serve.cache.hit" in
      let probes = hit +. c "serve.cache.miss" +. c "serve.cache.alias" in
      let _, factor_s = Harness.hist "solver.factor_s" in
      let counters =
        [
          ("service.memo_hit_frac", Harness.ratio memo_hit (memo_hit +. memo_miss));
          ("deck_cache.hit_frac", Harness.ratio hit probes);
          ("deck_cache.resym_per_job", per_job (c "serve.cache.resym"));
          ("deck_cache.evictions_per_job", per_job (c "serve.cache.evict"));
          ( "solver.sparse.analyze_per_job",
            per_job (c "solver.sparse.analyze" +. c "solver.sparse.canalyze") );
          ( "solver.sparse.refactor_per_job",
            per_job (c "solver.sparse.refactor" +. c "solver.sparse.crefactor") );
          ("solver.refactor_ms", per_job factor_s *. 1e3);
        ]
      in
      let mismatched, replay = replay_layers cfg ~priming ~jobs ~m ~pass_a:wa lines_a in
      if mismatched > 0 then fail mismatched "the layer replay disagrees with the service";
      let by_kind =
        Array.to_list kinds
        |> List.map (fun k ->
               let s = List.filteri (fun i _ -> jobs.(i).kind = k) (Array.to_list w.best) in
               ( "service.job_ms." ^ kind_name k,
                 if s = [] then 0.0 else Stats.median (Array.of_list s) *. 1e3 ))
      in
      ( counters @ replay @ by_kind @ Harness.common_layers ~untraced:w ~pass_a:wa,
        notes
        @ [
            Printf.sprintf "  replay: %d of %d result lines match the service's"
              (m - mismatched) m;
          ]
      )
    end
  in
  { Harness.attempted = executions; failed = !failed; untraced = w; layers; notes }
