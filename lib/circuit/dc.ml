open Rlc_numerics

type system = {
  asm : Assembly.t;
  netlist : Netlist.t;
  factor : Solver.factor;
  states : bool array;
  x : float array;
  voltages : float array;
  rhs0 : float array;
}

let assembly s = s.asm
let factor s = s.factor
let rhs s = Array.copy s.rhs0
let inputs s = s.asm.Assembly.inputs
let voltages s = s.voltages
let unknowns s = s.x
let g_symbolic s = Solver.symbolic_of s.factor

(* Inverter drives enter the RHS, not B: they are internal switching
   stages, not independent inputs. *)
let add_inverter_drives netlist states rhs =
  let inv = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Netlist.Inverter { output; dev; _ } ->
          let v_drive = if states.(!inv) then dev.Devices.vdd else 0.0 in
          incr inv;
          if output <> Netlist.ground then begin
            let k = output - 1 in
            rhs.(k) <- rhs.(k) +. (v_drive /. dev.Devices.r_on)
          end
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Rl_branch _
      | Netlist.Coupled_rl _ | Netlist.Vsource _ | Netlist.Isource _ -> ())
    (Netlist.elements netlist)

let rhs_at_t0_into asm netlist states rhs =
  Array.fill rhs 0 (Array.length rhs) 0.0;
  let u =
    Array.map
      (fun inp -> Stimulus.eval inp.Assembly.stim 0.0)
      asm.Assembly.inputs
  in
  Assembly.iter_b asm (fun row col v -> rhs.(row) <- rhs.(row) +. (v *. u.(col)));
  add_inverter_drives netlist states rhs

let make ?(max_state_iterations = 64) ?assembly ?symbolic netlist =
  let asm =
    match assembly with
    | Some a -> a
    | None -> Assembly.of_netlist netlist
  in
  let factor =
    try Assembly.factor_g ?symbolic asm
    with Solver.Singular ->
      failwith "Dc.operating_point: singular system"
  in
  let elems = Netlist.elements netlist in
  let n_invs =
    Array.fold_left
      (fun acc e -> match e with Netlist.Inverter _ -> acc + 1 | _ -> acc)
      0 elems
  in
  let states = Array.make (Int.max n_invs 1) true in
  (* the fixed-point loop reuses one RHS buffer, one solution buffer
     and one solver scratch across passes instead of allocating three
     arrays per solve *)
  let rhs = Array.make asm.Assembly.size 0.0 in
  let x_buf = Array.make asm.Assembly.size 0.0 in
  let scr = Solver.scratch asm.Assembly.plan in
  let solve_with states =
    rhs_at_t0_into asm netlist states rhs;
    Solver.solve_into asm.Assembly.plan factor scr ~b:rhs ~x:x_buf;
    x_buf
  in
  (* inverter logic states: fixed point over the linear solves, all
     sharing the one factorisation *)
  let rec iterate pass =
    if pass > max_state_iterations then
      failwith "Dc.operating_point: inverter states do not settle";
    let x = solve_with states in
    let changed = ref false in
    let inv = ref 0 in
    Array.iter
      (fun e ->
        match e with
        | Netlist.Inverter { input; dev; _ } ->
            let v_in = if input = Netlist.ground then 0.0 else x.(input - 1) in
            let s = Devices.drives_high dev ~v_in in
            if s <> states.(!inv) then begin
              states.(!inv) <- s;
              changed := true
            end;
            incr inv
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Rl_branch _
        | Netlist.Coupled_rl _ | Netlist.Vsource _ | Netlist.Isource _ -> ())
      elems;
    if !changed then iterate (pass + 1) else x
  in
  let x = iterate 1 in
  (* after the fixed point settles, [rhs] holds the RHS of the final
     states — snapshot it for the what-if workspace *)
  let rhs0 = Array.copy rhs in
  let n_nodes = asm.Assembly.n_nodes in
  let voltages = Array.make n_nodes 0.0 in
  for node = 1 to n_nodes - 1 do
    voltages.(node) <- x.(node - 1)
  done;
  { asm; netlist; factor; states; x; voltages; rhs0 }

let sensitivity s ~input =
  let n_inputs = Array.length s.asm.Assembly.inputs in
  if input < 0 || input >= n_inputs then
    invalid_arg
      (Printf.sprintf "Dc.sensitivity: input %d out of %d" input n_inputs);
  let dx = Assembly.solve_g s.asm s.factor (Assembly.b_column s.asm input) in
  let n_nodes = s.asm.Assembly.n_nodes in
  let dv = Array.make n_nodes 0.0 in
  for node = 1 to n_nodes - 1 do
    dv.(node) <- dx.(node - 1)
  done;
  dv

let operating_point ?max_state_iterations netlist =
  (make ?max_state_iterations netlist).voltages

let initial_conditions ?max_state_iterations netlist =
  let v = operating_point ?max_state_iterations netlist in
  List.init (Array.length v - 1) (fun i -> (i + 1, v.(i + 1)))
