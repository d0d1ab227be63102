open Rlc_circuit

type config = {
  node : Rlc_tech.Node.t;
  l : float;
  h : float;
  k : float;
  stages : int;
  segments : int;
}

let config ?(stages = 5) ?(segments = 20) node ~l ~h ~k =
  if stages < 3 || stages mod 2 = 0 then
    invalid_arg "Ring.config: stages must be odd and >= 3";
  if segments < 1 then invalid_arg "Ring.config: segments < 1";
  if l < 0.0 then invalid_arg "Ring.config: l < 0";
  if h <= 0.0 || k <= 0.0 then invalid_arg "Ring.config: h, k must be positive";
  { node; l; h; k; stages; segments }

let rc_sized_config ?stages ?segments node ~l =
  let rc = Rlc_core.Rc_opt.optimize node in
  config ?stages ?segments node ~l ~h:rc.Rlc_core.Rc_opt.h_opt
    ~k:rc.Rlc_core.Rc_opt.k_opt

type built = {
  netlist : Netlist.t;
  stage_out : Netlist.node array;
  stage_in : Netlist.node array;
  initial_voltages : (Netlist.node * float) list;
  config : config;
}

let line_prefix i = Printf.sprintf "line%d" i
let inverter_name i = Printf.sprintf "inv%d" i

let build cfg =
  let nl = Netlist.create () in
  let n = cfg.stages in
  let vdd = cfg.node.Rlc_tech.Node.vdd in
  let out =
    Array.init n (fun i ->
        Netlist.fresh_node ~name:(Printf.sprintf "out%d" i) nl)
  in
  let inp =
    Array.init n (fun i ->
        Netlist.fresh_node ~name:(Printf.sprintf "in%d" i) nl)
  in
  let dev =
    Devices.inverter_of_driver cfg.node.Rlc_tech.Node.driver ~k:cfg.k ~vdd ()
  in
  for i = 0 to n - 1 do
    (* inverter i: gate at inp.(i), drain at out.(i); line i runs from
       out.(i) to inp.((i+1) mod n) *)
    Netlist.add_inverter ~name:(inverter_name i) nl ~input:inp.(i)
      ~output:out.(i) dev;
    Ladder.make ~name_prefix:(line_prefix i) nl
      {
        Ladder.r = cfg.node.Rlc_tech.Node.r;
        l = cfg.l;
        c = cfg.node.Rlc_tech.Node.c;
        length = cfg.h;
        segments = cfg.segments;
      }
      ~from_node:out.(i)
      ~to_node:inp.((i + 1) mod n)
  done;
  (* Initial state: alternating logic pattern out_i = vdd for even i
     except the last stage, which is the single inconsistent one (its
     input asks for high but it starts low).  Exactly one travelling
     edge is launched, selecting the fundamental oscillation mode. *)
  let ics = ref [] in
  let set_chain i v =
    ics := (out.(i), v) :: (inp.((i + 1) mod n), v) :: !ics;
    for j = 1 to cfg.segments - 1 do
      match Netlist.find_node nl (Printf.sprintf "%s_n%d" (line_prefix i) j) with
      | Some node -> ics := (node, v) :: !ics
      | None -> ()
    done
  in
  for i = 0 to n - 1 do
    let v = if i < n - 1 && i mod 2 = 0 then vdd else 0.0 in
    set_chain i v
  done;
  { netlist = nl; stage_out = out; stage_in = inp;
    initial_voltages = !ics; config = cfg }

let estimated_stage_delay cfg =
  let stage =
    Rlc_core.Stage.of_node cfg.node ~l:cfg.l ~h:cfg.h ~k:cfg.k
  in
  Rlc_core.Delay.of_stage stage

type sim = {
  built : built;
  out0 : Rlc_waveform.Waveform.t;
  in0 : Rlc_waveform.Waveform.t;
  wire_current : Rlc_waveform.Waveform.t;
}

let default_dt cfg =
  (* resolve both the LC flight time of one ladder segment and the
     driver RC; the stage delay / 400 is a practical upper bound *)
  let seg_len = cfg.h /. float_of_int cfg.segments in
  let lc =
    if cfg.l > 0.0 then
      seg_len *. Float.sqrt (cfg.l *. cfg.node.Rlc_tech.Node.c)
    else infinity
  in
  let tau = estimated_stage_delay cfg in
  Float.min (lc /. 4.0) (tau /. 400.0)

let simulate ?dt ?t_end ?(record_every = 1) cfg =
  let built = build cfg in
  let tau = estimated_stage_delay cfg in
  let period_estimate = 2.0 *. float_of_int cfg.stages *. tau in
  let t_end =
    match t_end with Some t -> t | None -> 16.0 *. period_estimate
  in
  let dt = match dt with Some d -> d | None -> default_dt cfg in
  let probes =
    [
      Transient.Node_v built.stage_out.(0);
      Transient.Node_v built.stage_in.(0);
      Ladder.input_current_probe ~name_prefix:(line_prefix 0) ();
    ]
  in
  let result =
    Transient.simulate
      ~config:
        {
          Transient.Config.default with
          initial_voltages = built.initial_voltages;
          record_every;
        }
      built.netlist ~t_end ~dt ~probes
  in
  {
    built;
    out0 = Transient.get result (Transient.Node_v built.stage_out.(0));
    in0 = Transient.get result (Transient.Node_v built.stage_in.(0));
    wire_current =
      Transient.get result (Ladder.input_current_probe ~name_prefix:(line_prefix 0) ());
  }
