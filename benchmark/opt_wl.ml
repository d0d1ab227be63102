(* optimize-hk: the paper's methodology, one [Rlc_opt.optimize] call per
   op at f = 0.5, alternating over the technology nodes at seeded
   inductances spread uniformly over [0, l_max]. *)

open Rlc_core

let f = 0.5

(* Optimizations per second on the reference machine; see README.md. *)
let per_s = 1650.0

let run (cfg : Harness.config) =
  let m = Harness.round_ops cfg ~per_s ~smoke:8 in
  let nodes = Array.of_list Rlc_tech.Presets.all in
  let rng = Harness.rng cfg 4 in
  (* stratified: each node's ops take one l from each of equal slices of
     [0, l_max], so a seed moves the points but not their spread *)
  let n_nodes = Array.length nodes in
  let per_node = (m + n_nodes - 1) / n_nodes in
  let inputs =
    Array.init m (fun i ->
        let node = nodes.(i mod n_nodes) in
        let slice = float_of_int (i / n_nodes) +. Random.State.float rng 1.0 in
        (node, node.Rlc_tech.Node.l_max *. slice /. float_of_int per_node))
  in
  (* set-up: a coarse sweep per node, the priming pass of this workload *)
  let setup ~round:_ =
    Array.iter
      (fun node -> ignore (Rlc_opt.sweep ~f ~n:8 node ~l_max:node.Rlc_tech.Node.l_max))
      nodes
  in
  let op () i =
    let node, l = inputs.(i) in
    Rlc_opt.optimize ~f node ~l
  in
  let failed = ref 0 and fallbacks = ref 0 in
  let objective_s = ref 0.0 and objective_calls = ref 0 in
  let check ~round i (r : Rlc_opt.result) =
    let node, l = inputs.(i) in
    let objective ~h ~k =
      let t0 = Harness.now () in
      let v = Rlc_opt.objective ~f node ~l ~h ~k in
      objective_s := !objective_s +. (Harness.now () -. t0);
      incr objective_calls;
      v
    in
    if round < 0 && not r.newton_converged then incr fallbacks;
    if not (Verify.optimum_ok ~objective ~h:r.h ~k:r.k ~reported:r.delay_per_length)
    then begin
      incr failed;
      Printf.eprintf "  failed: %s l=%g h=%g k=%g tau/h=%g\n" node.Rlc_tech.Node.name l r.h
        r.k r.delay_per_length
    end
  in
  let w = Harness.window cfg ~setup ~m ~op ~check in
  let executions = (Harness.rounds cfg + 1) * m in
  let fallback_frac = float_of_int !fallbacks /. float_of_int m in
  let layers =
    if not cfg.trace then []
    else begin
      let wa =
        Harness.traced (fun () ->
            Harness.window cfg ~setup ~m ~op ~check:(fun ~round:_ _ _ -> ()))
      in
      let per_opt name = Harness.counter name /. float_of_int executions in
      (* the two solvers [optimize] runs, timed one at a time *)
      let newton_s = ref 0.0 and nm_s = ref 0.0 in
      Array.iter
        (fun (node, l) ->
          let t0 = Harness.now () in
          ignore (Rlc_opt.optimize_newton_only ~f node ~l);
          let t1 = Harness.now () in
          ignore (Rlc_opt.optimize_nm_only ~f node ~l);
          newton_s := !newton_s +. (t1 -. t0);
          nm_s := !nm_s +. (Harness.now () -. t1))
        inputs;
      let us x = x /. float_of_int m *. 1e6 in
      [
        ("rlc_opt.optimize_us", Stats.mean w.best *. 1e6);
        ("rlc_opt.newton_us", us !newton_s);
        ("rlc_opt.nm_us", us !nm_s);
        ( "rlc_opt.objective_us",
          Harness.ratio !objective_s (float_of_int !objective_calls) *. 1e6 );
        ("newton.iterations_per_opt", per_opt "newton.iterations");
        ("nelder_mead.iterations_per_opt", per_opt "nelder_mead.iterations");
        ("newton.fallback_frac", fallback_frac);
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
        Printf.sprintf "  %d optimizations per round; %.2f%% fell back to Nelder-Mead" m
          (100.0 *. fallback_frac);
      ];
  }
