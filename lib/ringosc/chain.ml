open Rlc_circuit

type config = {
  node : Rlc_tech.Node.t;
  l : float;
  h : float;
  k : float;
  stages : int;
  segments : int;
  period : float;
}

let stage_delay node ~l ~h ~k =
  Rlc_core.Delay.of_stage (Rlc_core.Stage.of_node node ~l ~h ~k)

let config ?(stages = 5) ?(segments = 12) ?period node ~l ~h ~k =
  if stages < 1 then invalid_arg "Chain.config: stages < 1";
  if segments < 1 then invalid_arg "Chain.config: segments < 1";
  if l < 0.0 then invalid_arg "Chain.config: l < 0";
  if h <= 0.0 || k <= 0.0 then invalid_arg "Chain.config: h, k must be positive";
  let period =
    match period with
    | Some p ->
        if p <= 0.0 then invalid_arg "Chain.config: period <= 0";
        p
    | None -> 24.0 *. stage_delay node ~l ~h ~k
  in
  { node; l; h; k; stages; segments; period }

let rc_sized_config ?stages ?segments ?period node ~l =
  let rc = Rlc_core.Rc_opt.optimize node in
  config ?stages ?segments ?period node ~l ~h:rc.Rlc_core.Rc_opt.h_opt
    ~k:rc.Rlc_core.Rc_opt.k_opt

type sim = {
  config : config;
  input : Rlc_waveform.Waveform.t;
  last_in : Rlc_waveform.Waveform.t;
  output : Rlc_waveform.Waveform.t;
}

let simulate ?dt ?(cycles = 6) cfg =
  if cycles < 2 then invalid_arg "Chain.simulate: cycles < 2";
  let vdd = cfg.node.Rlc_tech.Node.vdd in
  let nl = Netlist.create () in
  let drive = Netlist.fresh_node ~name:"drive" nl in
  Netlist.add_vsource nl drive Netlist.ground
    (Stimulus.square_wave ~vdd ~period:cfg.period ());
  let dev =
    Devices.inverter_of_driver cfg.node.Rlc_tech.Node.driver ~k:cfg.k ~vdd ()
  in
  (* stage i: inverter from gate_i to drain_i, line from drain_i to
     gate_{i+1}; gate_0 is the driven node *)
  let rec build i gate =
    if i = cfg.stages then gate
    else begin
      let drain = Netlist.fresh_node ~name:(Printf.sprintf "drain%d" i) nl in
      let next_gate =
        Netlist.fresh_node ~name:(Printf.sprintf "gate%d" (i + 1)) nl
      in
      Netlist.add_inverter ~name:(Printf.sprintf "inv%d" i) nl ~input:gate
        ~output:drain dev;
      Ladder.make ~name_prefix:(Printf.sprintf "line%d" i) nl
        {
          Ladder.r = cfg.node.Rlc_tech.Node.r;
          l = cfg.l;
          c = cfg.node.Rlc_tech.Node.c;
          length = cfg.h;
          segments = cfg.segments;
        }
        ~from_node:drain ~to_node:next_gate;
      build (i + 1) next_gate
    end
  in
  let last_gate = build 0 drive in
  (* terminate with one more identical repeater's gate: already the
     inverter input capacitance when stages >= 1; add an explicit
     monitor inverter so the far end is loaded like every other stage *)
  let monitor_out = Netlist.fresh_node ~name:"monitor" nl in
  Netlist.add_inverter ~name:"monitor_inv" nl ~input:last_gate
    ~output:monitor_out dev;
  let t_end = float_of_int cycles *. cfg.period in
  let tau = stage_delay cfg.node ~l:cfg.l ~h:cfg.h ~k:cfg.k in
  let dt =
    match dt with
    | Some d -> d
    | None ->
        let seg_len = cfg.h /. float_of_int cfg.segments in
        let lc =
          if cfg.l > 0.0 then
            seg_len *. Float.sqrt (cfg.l *. cfg.node.Rlc_tech.Node.c) /. 4.0
          else infinity
        in
        Float.min lc (tau /. 400.0)
  in
  let probes =
    [
      Transient.Node_v drive;
      Transient.Node_v last_gate;
      Transient.Node_v monitor_out;
    ]
  in
  let r = Transient.simulate nl ~t_end ~dt ~probes in
  {
    config = cfg;
    input = Transient.get r (Transient.Node_v drive);
    last_in = Transient.get r (Transient.Node_v last_gate);
    output = Transient.get r (Transient.Node_v monitor_out);
  }

type verdict = {
  input_edges : int;
  output_edges : int;
  spurious_edges : int;
  false_switching : bool;
}

let check sim =
  let vdd = sim.config.node.Rlc_tech.Node.vdd in
  let lo = 0.25 *. vdd and hi = 0.75 *. vdd in
  let after_warmup w =
    let t0 = Rlc_waveform.Waveform.t_start w +. sim.config.period in
    Rlc_waveform.Waveform.slice w ~t0 ~t1:(Rlc_waveform.Waveform.t_end w)
  in
  let edges w =
    List.length
      (Rlc_waveform.Measure.full_transitions (after_warmup w) ~lo ~hi)
  in
  let input_edges = edges sim.input in
  let output_edges = edges sim.output in
  let spurious = output_edges - input_edges in
  {
    input_edges;
    output_edges;
    spurious_edges = spurious;
    false_switching = spurious > 0;
  }
