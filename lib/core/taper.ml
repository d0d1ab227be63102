let ln2 = Float.log 2.0

type chain = {
  stages : int;
  ratio : float;
  sizes : float list;
  delay : float;
}

(* rho (ln rho - 1) = cp / c0 *)
let optimal_ratio driver =
  let target = driver.Rlc_tech.Driver.cp /. driver.Rlc_tech.Driver.c0 in
  Rlc_numerics.Roots.newton
    ~f:(fun rho -> (rho *. (Float.log rho -. 1.0)) -. target)
    ~df:(fun rho -> Float.log rho)
    (Float.exp 1.0 +. target)

let fanout driver ~k_first ~load =
  let first_cap = driver.Rlc_tech.Driver.c0 *. k_first in
  if load <= first_cap then
    invalid_arg "Taper: load must exceed the first stage's input capacitance";
  load /. first_cap

let delay_of_ratio driver ~load ?(k_first = 1.0) rho =
  if rho <= 1.0 then invalid_arg "Taper.delay_of_ratio: ratio <= 1";
  let f = fanout driver ~k_first ~load in
  let n = Float.log f /. Float.log rho in
  n *. ln2
  *. driver.Rlc_tech.Driver.rs
  *. (driver.Rlc_tech.Driver.cp +. (driver.Rlc_tech.Driver.c0 *. rho))

let design ?(k_first = 1.0) driver ~load =
  let f = fanout driver ~k_first ~load in
  let rho_star = optimal_ratio driver in
  let n = Int.max 1 (int_of_float (Float.round (Float.log f /. Float.log rho_star))) in
  let ratio = f ** (1.0 /. float_of_int n) in
  let sizes =
    List.init n (fun i -> k_first *. (ratio ** float_of_int i))
  in
  let delay =
    float_of_int n *. ln2
    *. driver.Rlc_tech.Driver.rs
    *. (driver.Rlc_tech.Driver.cp +. (driver.Rlc_tech.Driver.c0 *. ratio))
  in
  { stages = n; ratio; sizes; delay }

let chain_through_wire ?f node ~l ~wire_length ~load =
  if wire_length <= 0.0 then invalid_arg "Taper.chain_through_wire: bad wire";
  if load <= 0.0 then invalid_arg "Taper.chain_through_wire: bad load";
  let driver = node.Rlc_tech.Node.driver in
  let line = Line.of_node node ~l in
  let wire_delay k =
    (* the paper's stage with the load pinned to [load] instead of
       c0 k: encode it as a synthetic driver whose c0 scales to the
       real load at size k *)
    let synthetic =
      Rlc_tech.Driver.make ~rs:driver.Rlc_tech.Driver.rs ~c0:(load /. k)
        ~cp:driver.Rlc_tech.Driver.cp
    in
    Delay.of_stage ?f (Stage.make ~line ~driver:synthetic ~h:wire_length ~k)
  in
  let total k =
    if k <= 1.0 then nan
    else begin
      let gate_cap = driver.Rlc_tech.Driver.c0 *. k in
      let chain =
        if gate_cap <= driver.Rlc_tech.Driver.c0 then
          { stages = 0; ratio = 1.0; sizes = []; delay = 0.0 }
        else design driver ~load:gate_cap
      in
      chain.delay +. wire_delay k
    end
  in
  let sol =
    Rlc_numerics.Nelder_mead.minimize_ctx ~max_iter:2000 ~ctx:()
      ~f:(fun () x -> total (Float.exp x.(0)))
      ~x0:[| Float.log 100.0 |] ()
  in
  let k = Float.exp sol.Rlc_numerics.Nelder_mead.x.(0) in
  let gate_cap = node.Rlc_tech.Node.driver.Rlc_tech.Driver.c0 *. k in
  let chain = design node.Rlc_tech.Node.driver ~load:gate_cap in
  (* append the wire-driver stage itself *)
  let chain =
    {
      chain with
      stages = chain.stages + 1;
      sizes = chain.sizes @ [ k ];
      delay = chain.delay;
    }
  in
  (chain, total k)
