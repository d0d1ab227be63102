type params = { f_clk : float; activity : float; i_leak : float }

let default_params = { f_clk = 1e9; activity = 0.15; i_leak = 10e-9 }

let check_hk h k =
  if h <= 0.0 || k <= 0.0 then invalid_arg "Power: h and k must be positive"

let repeater_cap_per_length node ~h ~k =
  let d = node.Rlc_tech.Node.driver in
  (d.Rlc_tech.Driver.cp +. d.Rlc_tech.Driver.c0) *. k /. h

let energy_per_transition_per_length node ~h ~k =
  check_hk h k;
  let vdd = node.Rlc_tech.Node.vdd in
  vdd *. vdd *. (node.Rlc_tech.Node.c +. repeater_cap_per_length node ~h ~k)

let dynamic_per_length ?(params = default_params) node ~h ~k =
  params.activity *. params.f_clk
  *. energy_per_transition_per_length node ~h ~k

let leakage_per_length ?(params = default_params) node ~h ~k =
  check_hk h k;
  params.i_leak *. k /. h *. node.Rlc_tech.Node.vdd

let per_length ?params node ~h ~k =
  dynamic_per_length ?params node ~h ~k
  +. leakage_per_length ?params node ~h ~k

type result = {
  h : float;
  k : float;
  delay_per_length : float;
  power_per_length : float;
  delay_penalty : float;
  power_saving : float;
}

let evaluate ?params ?f node ~l ~h ~k =
  check_hk h k;
  let dpl = Rlc_opt.objective ?f node ~l ~h ~k in
  if Float.is_nan dpl then invalid_arg "Power.evaluate: unphysical (h, k)";
  let ppl = per_length ?params node ~h ~k in
  let delay_only = Rlc_opt.optimize ?f node ~l in
  let p0 =
    per_length ?params node ~h:delay_only.Rlc_opt.h ~k:delay_only.Rlc_opt.k
  in
  {
    h;
    k;
    delay_per_length = dpl;
    power_per_length = ppl;
    delay_penalty = dpl /. delay_only.Rlc_opt.delay_per_length;
    power_saving = 1.0 -. (ppl /. p0);
  }

let optimize_weighted ?params ?f node ~l ~lambda =
  if lambda < 0.0 then invalid_arg "Power.optimize_weighted: lambda < 0";
  let delay_only = Rlc_opt.optimize ?f node ~l in
  let objective x =
    let h = Float.exp x.(0) and k = Float.exp x.(1) in
    let dpl = Rlc_opt.objective ?f node ~l ~h ~k in
    if Float.is_nan dpl then nan
    else dpl *. (per_length ?params node ~h ~k ** lambda)
  in
  let sol =
    Rlc_numerics.Nelder_mead.minimize_ctx ~max_iter:4000 ~ftol:1e-14
      ~xtol:1e-9 ~ctx:()
      ~f:(fun () -> objective)
      ~x0:[| Float.log delay_only.Rlc_opt.h; Float.log delay_only.Rlc_opt.k |]
      ()
  in
  let h = Float.exp sol.Rlc_numerics.Nelder_mead.x.(0)
  and k = Float.exp sol.Rlc_numerics.Nelder_mead.x.(1) in
  evaluate ?params ?f node ~l ~h ~k

let pareto ?params ?f
    ?(lambdas = List.init 11 (fun i -> float_of_int i /. 10.0)) node ~l =
  List.map (fun lambda -> optimize_weighted ?params ?f node ~l ~lambda) lambdas
