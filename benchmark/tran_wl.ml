(* transient-ladder: [Transient.simulate_adaptive] on step-driven RLC
   ladders from RC-dominated to inductance-dominated, each run checked
   against a fixed-step trapezoidal reference. *)

open Rlc_circuit

let segments = [| 50; 100; 200; 400 |]
let inductances = [| 0.1; 0.5; 1.5 |] (* uH/m *)
let rtols = [| 1e-3; 1e-4 |]
let t_end = 3e-9
let dt_max = t_end /. 32.0

type deck = { text : string; rtol : float }

(* An 11 mm line of the 100 nm node's r and c driven by a 200 ps ramp.
   The seed jitters r, l and c by up to 1%: enough to change every
   waveform, too little to change the work a simulation does. *)
let deck_text ~r ~l ~c segs =
  Printf.sprintf
    "* step-driven rlc ladder\n\
     V1 in 0 PULSE(0 1 0 200p 200p 10n 20n)\n\
     W1 in far r=%.6g l=%.6gu c=%.6gp len=11m seg=%d\n\
     .end\n"
    r l c segs

let decks ~smoke rng =
  let segments = if smoke then [| 50 |] else segments in
  let jitter () = 0.99 +. Random.State.float rng 0.02 in
  Array.to_list segments
  |> List.concat_map (fun segs ->
         Array.to_list inductances
         |> List.concat_map (fun l ->
                Array.to_list rtols
                |> List.map (fun rtol ->
                       {
                         text =
                           deck_text ~r:(4400.0 *. jitter ()) ~l:(l *. jitter ())
                             ~c:(123.33 *. jitter ()) segs;
                         rtol;
                       })))
  |> Array.of_list

(* Op [i] runs deck [order.(i)]: every deck once per cycle, each cycle
   in its own seeded order. *)
let order rng ~decks ~total =
  let cycles =
    Array.init ((total + decks - 1) / decks) (fun _ ->
        let a = Array.init decks Fun.id in
        Harness.shuffle rng a;
        a)
  in
  Array.init total (fun i -> cycles.(i / decks).(i mod decks))

(* Simulations per second on the reference machine; see README.md. *)
let per_s = 13.0

let run (cfg : Harness.config) =
  let rng = Harness.rng cfg 5 in
  let decks = decks ~smoke:cfg.smoke rng in
  let n_decks = Array.length decks in
  (* whole cycles over the decks in each round *)
  let cycles = Int.max 1 (Harness.round_ops cfg ~per_s ~smoke:n_decks / n_decks) in
  let m = cycles * n_decks in
  let order = order rng ~decks:n_decks ~total:m in
  let parse ~round:_ =
    Array.map
      (fun d ->
        let deck = Parser.parse_string d.text in
        (deck.Parser.netlist, Transient.Node_v (Option.get (Parser.node_of_name deck "far"))))
      decks
  in
  (* references: fixed-step trapezoidal at dt_max/256, trusted when the
     dt_max/128 run stays within a tenth of the budget of it *)
  let failed = ref 0 and fixed_s = ref 0.0 and fixed_steps = ref 0 and ref_moved = ref 0.0 in
  let references =
    Array.mapi
      (fun i (nl, probe) ->
        let sim dt = Transient.simulate nl ~t_end ~dt ~probes:[ probe ] in
        let t0 = Harness.now () in
        let fine = sim (dt_max /. 256.0) in
        fixed_s := !fixed_s +. (Harness.now () -. t0);
        fixed_steps := !fixed_steps + Transient.steps_taken fine;
        let fine = Transient.get fine probe in
        let coarse = Transient.get (sim (dt_max /. 128.0)) probe in
        let moved = Verify.wave_err_pct ~reference:fine coarse in
        ref_moved := Float.max !ref_moved moved;
        if not (Verify.reference_ok ~fine ~coarse) then begin
          incr failed;
          Printf.eprintf "  reference %d moved %.3f%% of swing when its step doubled\n" i moved
        end;
        fine)
      (parse ~round:(-1))
  in
  let op parsed i =
    let nl, probe = parsed.(order.(i)) in
    let config = { Transient.Config.default with rtol = decks.(order.(i)).rtol } in
    (Transient.simulate_adaptive ~config nl ~t_end ~dt_max ~probes:[ probe ], probe)
  in
  let err_max = ref 0.0 in
  let check ~round:_ i (r, probe) =
    let d = order.(i) in
    let err = Verify.wave_err_pct ~reference:references.(d) (Transient.get r probe) in
    err_max := Float.max !err_max err;
    if err > Verify.budget_pct then begin
      incr failed;
      Printf.eprintf "  failed: deck %d off its reference by %.3f%% of swing\n" d err
    end
  in
  let w = Harness.window cfg ~setup:parse ~m ~op ~check in
  let executions = (Harness.rounds cfg + 1) * m in
  let layers =
    if not cfg.trace then []
    else begin
      let wa =
        Harness.traced (fun () ->
            Harness.window cfg ~setup:parse ~m ~op ~check:(fun ~round:_ _ _ -> ()))
      in
      let c = Harness.counter in
      let attempts = c "transient.steps" +. c "transient.rejected_steps" in
      let hits = c "transient.lu_cache.hit" in
      let adv_n, adv_s = Harness.hist "transient.step_s" in
      let solve_n, solve_s = Harness.hist "solver.solve_s" in
      [
        ("transient.sim_ms", Stats.mean w.best *. 1e3);
        ("transient.rejected_frac", Harness.ratio (c "transient.rejected_steps") attempts);
        ("transient.advances_per_attempt", Harness.ratio (c "transient.advances") attempts);
        ("transient.advance_us", Harness.ratio adv_s (float_of_int adv_n) *. 1e6);
        ("transient.fixed_step_us", Harness.ratio !fixed_s (float_of_int !fixed_steps) *. 1e6);
        ("transient.lu_cache_hit_frac", Harness.ratio hits (hits +. c "transient.lu_cache.miss"));
        ("solver.factor_per_sim", c "solver.factor" /. float_of_int executions);
        ("solver.solve_us", Harness.ratio solve_s (float_of_int solve_n) *. 1e6);
        ("transient.wave_err_max_pct", !err_max);
      ]
      @ Harness.common_layers ~untraced:w ~pass_a:wa
    end
  in
  {
    Harness.attempted = executions;
    failed = !failed;
    untraced = w;
    layers;
    notes =
      [
        Printf.sprintf
          "  %d decks, %d simulations per round; worst error against the \
           reference %.3f%% of swing (budget %g%%); references move up to \
           %.3f%% when their step doubles"
          n_decks m !err_max Verify.budget_pct !ref_moved;
      ];
  }
