type corner = {
  name : string;
  r_scale : float;
  c_scale : float;
  l_frac : float;
  rs_scale : float;
}

let typical =
  { name = "typical"; r_scale = 1.0; c_scale = 1.0; l_frac = 0.35;
    rs_scale = 1.0 }

let fast =
  { name = "fast"; r_scale = 0.85; c_scale = 0.8; l_frac = 0.1;
    rs_scale = 0.85 }

let slow =
  { name = "slow"; r_scale = 1.15; c_scale = 1.3; l_frac = 0.8;
    rs_scale = 1.15 }

let si_worst =
  { name = "si-worst"; r_scale = 0.85; c_scale = 0.8; l_frac = 1.0;
    rs_scale = 0.85 }

let standard_set = [ typical; fast; slow; si_worst ]

type evaluation = {
  corner : corner;
  delay_per_length : float;
  overshoot : float;
  underdamped : bool;
}

let apply node corner ~h ~k =
  if corner.l_frac < 0.0 || corner.l_frac > 1.0 then
    invalid_arg "Corners.apply: l_frac outside [0,1]";
  let line =
    Line.make
      ~r:(node.Rlc_tech.Node.r *. corner.r_scale)
      ~l:(corner.l_frac *. node.Rlc_tech.Node.l_max)
      ~c:(node.Rlc_tech.Node.c *. corner.c_scale)
  in
  let d = node.Rlc_tech.Node.driver in
  let driver =
    Rlc_tech.Driver.make
      ~rs:(d.Rlc_tech.Driver.rs *. corner.rs_scale)
      ~c0:d.Rlc_tech.Driver.c0 ~cp:d.Rlc_tech.Driver.cp
  in
  Stage.make ~line ~driver ~h ~k

let evaluate ?pool ?f ?(corners = standard_set) node ~h ~k =
  let pool =
    match pool with Some p -> p | None -> Rlc_parallel.Pool.sequential
  in
  Rlc_parallel.Pool.map_list pool
    (fun corner ->
      let cs = Pade.coeffs (apply node corner ~h ~k) in
      {
        corner;
        delay_per_length = Delay.of_coeffs ?f cs /. h;
        overshoot = Step_response.overshoot cs;
        underdamped = Pade.classify cs = Pade.Underdamped;
      })
    corners

let delay_window ?pool ?f ?corners node ~h ~k =
  match evaluate ?pool ?f ?corners node ~h ~k with
  | [] -> invalid_arg "Corners.delay_window: no corners"
  | e :: rest ->
      List.fold_left
        (fun (lo, hi) x ->
          ( Float.min lo x.delay_per_length,
            Float.max hi x.delay_per_length ))
        (e.delay_per_length, e.delay_per_length)
        rest
