type distribution = {
  l_min : float;
  l_max : float;
  miller_min : float;
  miller_max : float;
  rs_sigma : float;
}

let default_distribution node =
  {
    l_min = 0.25 *. node.Rlc_tech.Node.l_max;
    l_max = 0.75 *. node.Rlc_tech.Node.l_max;
    miller_min = 0.5;
    miller_max = 1.5;
    rs_sigma = 0.05;
  }

type sample = { l : float; c : float; rs_scale : float }

let validate dist =
  if dist.l_min < 0.0 || dist.l_max < dist.l_min then
    invalid_arg "Variation: bad inductance range";
  if dist.miller_min < 0.0 || dist.miller_max < dist.miller_min then
    invalid_arg "Variation: bad miller range";
  if dist.rs_sigma < 0.0 then invalid_arg "Variation: rs_sigma < 0"

(* Box-Muller on the deterministic PRNG state *)
let gaussian state =
  let u1 = Random.State.float state 1.0 +. 1e-300 in
  let u2 = Random.State.float state 1.0 in
  Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

let draw ?(seed = 42) ~n node dist =
  validate dist;
  if n < 1 then invalid_arg "Variation.draw: n < 1";
  let state = Random.State.make [| seed |] in
  let uniform lo hi = lo +. Random.State.float state (hi -. lo) in
  (* c varies with the miller factor through the coupling/ground split
     of the node's extraction geometry; scale the Table 1 value by the
     same ratio the analytic extractor predicts *)
  let g = node.Rlc_tech.Node.geometry in
  let c_quiet = Rlc_extraction.Capacitance.total ~miller:1.0 g in
  List.init n (fun _ ->
      let miller = uniform dist.miller_min dist.miller_max in
      let c_ratio = Rlc_extraction.Capacitance.total ~miller g /. c_quiet in
      let z = Float.max (-3.0) (Float.min 3.0 (gaussian state)) in
      {
        l = uniform dist.l_min dist.l_max;
        c = node.Rlc_tech.Node.c *. c_ratio;
        rs_scale = 1.0 +. (dist.rs_sigma *. z);
      })

let stage_delay_of_sample ?f node ~h ~k sample =
  let driver =
    let d = node.Rlc_tech.Node.driver in
    Rlc_tech.Driver.make
      ~rs:(d.Rlc_tech.Driver.rs *. sample.rs_scale)
      ~c0:d.Rlc_tech.Driver.c0 ~cp:d.Rlc_tech.Driver.cp
  in
  let line = Line.make ~r:node.Rlc_tech.Node.r ~l:sample.l ~c:sample.c in
  Delay.of_stage ?f (Stage.make ~line ~driver ~h ~k)

type stats = {
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p95 : float;
}

let stats_of array =
  {
    mean = Rlc_numerics.Stats.mean array;
    stddev = Rlc_numerics.Stats.stddev array;
    min = Rlc_numerics.Stats.min array;
    max = Rlc_numerics.Stats.max array;
    p95 = Rlc_numerics.Stats.percentile array 95.0;
  }

(* Sampling stays sequential (one PRNG stream); only the per-sample
   delay evaluations fan out.  Results land in the array by sample
   index, so the statistics are bit-identical for any domain count. *)
let sample_delays ?pool ?f node ~h ~k samples =
  let pool =
    match pool with Some p -> p | None -> Rlc_parallel.Pool.sequential
  in
  Rlc_parallel.Pool.map pool
    (fun s -> stage_delay_of_sample ?f node ~h ~k s /. h)
    (Array.of_list samples)

let delay_statistics ?pool ?seed ?(n = 500) ?f node ~h ~k dist =
  let samples = draw ?seed ~n node dist in
  stats_of (sample_delays ?pool ?f node ~h ~k samples)

let compare_sizings ?pool ?seed ?(n = 500) ?f node dist candidates =
  let samples = draw ?seed ~n node dist in
  List.map
    (fun (name, h, k) ->
      (name, stats_of (sample_delays ?pool ?f node ~h ~k samples)))
    candidates
