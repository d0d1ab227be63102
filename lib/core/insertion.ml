type plan = {
  segments : int;
  h : float;
  k : float;
  total_delay : float;
  continuous_bound : float;
  quantization_penalty : float;
}

let optimal_k_for_h ?f node ~l ~h =
  if h <= 0.0 then invalid_arg "Insertion.optimal_k_for_h: h <= 0";
  let rc = Rc_opt.optimize node in
  let objective x =
    Rlc_opt.objective ?f node ~l ~h ~k:(Float.exp x.(0))
  in
  let sol =
    Rlc_numerics.Nelder_mead.minimize_ctx ~max_iter:2000 ~ctx:()
      ~f:(fun () -> objective)
      ~x0:[| Float.log rc.Rc_opt.k_opt |] ()
  in
  Float.exp sol.Rlc_numerics.Nelder_mead.x.(0)

let plan ?f node ~l ~length =
  if length <= 0.0 then invalid_arg "Insertion.plan: length <= 0";
  let opt = Rlc_opt.optimize ?f node ~l in
  let continuous_bound = opt.Rlc_opt.delay_per_length *. length in
  let n_star = length /. opt.Rlc_opt.h in
  let candidates =
    let base = int_of_float (Float.round n_star) in
    List.sort_uniq Int.compare
      (List.filter (fun n -> n >= 1) [ base - 1; base; base + 1; 1 ])
  in
  let evaluate n =
    let h = length /. float_of_int n in
    let k = optimal_k_for_h ?f node ~l ~h in
    let stage = Stage.of_node node ~l ~h ~k in
    let tau = Delay.of_stage ?f stage in
    (n, h, k, float_of_int n *. tau)
  in
  let best =
    List.fold_left
      (fun acc n ->
        let ((_, _, _, d) as cand) = evaluate n in
        match acc with
        | Some (_, _, _, d0) when d0 <= d -> acc
        | _ -> Some cand)
      None candidates
  in
  match best with
  | None -> assert false (* candidates is never empty *)
  | Some (segments, h, k, total_delay) ->
      {
        segments;
        h;
        k;
        total_delay;
        continuous_bound;
        quantization_penalty = (total_delay /. continuous_bound) -. 1.0;
      }

let sweep_lengths ?f node ~l ~lengths =
  List.map (fun length -> plan ?f node ~l ~length) lengths
