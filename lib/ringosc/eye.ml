open Rlc_circuit

type config = {
  node : Rlc_tech.Node.t;
  l : float;
  h : float;
  k : float;
  segments : int;
  bit_period : float;
  bits : int;
  seed : int;
}

let config ?(segments = 12) ?(bits = 63) ?(seed = 0b1010101) ?bit_period node
    ~l ~h ~k =
  if segments < 1 then invalid_arg "Eye.config: segments < 1";
  if bits < 8 then invalid_arg "Eye.config: bits < 8";
  if seed land 0x7f = 0 then invalid_arg "Eye.config: zero LFSR seed";
  if l < 0.0 || h <= 0.0 || k <= 0.0 then
    invalid_arg "Eye.config: bad stage parameters";
  let bit_period =
    match bit_period with
    | Some t ->
        if t <= 0.0 then invalid_arg "Eye.config: bit_period <= 0";
        t
    | None ->
        4.0 *. Rlc_core.Delay.of_stage (Rlc_core.Stage.of_node node ~l ~h ~k)
  in
  { node; l; h; k; segments; bit_period; bits; seed }

(* x^7 + x^6 + 1 maximal LFSR *)
let prbs ~seed n =
  if seed land 0x7f = 0 then invalid_arg "Eye.prbs: zero seed";
  let state = ref (seed land 0x7f) in
  List.init n (fun _ ->
      let bit = !state land 1 in
      let feedback = ((!state lsr 6) lxor (!state lsr 5)) land 1 in
      state := ((!state lsl 1) lor feedback) land 0x7f;
      bit = 1)

type measurement = {
  eye_high : float;
  eye_low : float;
  eye_opening : float;
  delay_min : float;
  delay_max : float;
  jitter : float;
}

let stimulus_of_bits ~vdd ~bit_period ~rise bits =
  (* PWL corners: hold the level through each bit, ramp over [rise] at
     boundaries where the value changes *)
  let corners = ref [ (0.0, 0.0) ] in
  let prev = ref false in
  List.iteri
    (fun i b ->
      if b <> !prev then begin
        let t = float_of_int i *. bit_period in
        let v0 = if !prev then vdd else 0.0 in
        let v1 = if b then vdd else 0.0 in
        (* a transition at t = 0 coincides with the seed corner *)
        if t > 0.0 then corners := (t, v0) :: !corners;
        corners := (t +. rise, v1) :: !corners
      end;
      prev := b)
    bits;
  Stimulus.Pwl (List.rev !corners)

let run ?dt cfg =
  let vdd = cfg.node.Rlc_tech.Node.vdd in
  let stage = Rlc_core.Stage.of_node cfg.node ~l:cfg.l ~h:cfg.h ~k:cfg.k in
  let tau = Rlc_core.Delay.of_stage stage in
  let bits = prbs ~seed:cfg.seed cfg.bits in
  let rise = cfg.bit_period /. 20.0 in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  let drv = Netlist.fresh_node nl in
  let far = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground
    (stimulus_of_bits ~vdd ~bit_period:cfg.bit_period ~rise bits);
  Netlist.add_resistor nl src drv (Rlc_core.Stage.rs stage);
  Netlist.add_capacitor nl drv Netlist.ground (Rlc_core.Stage.cp stage);
  Ladder.make nl
    {
      Ladder.r = stage.Rlc_core.Stage.line.Rlc_core.Line.r;
      l = stage.Rlc_core.Stage.line.Rlc_core.Line.l;
      c = stage.Rlc_core.Stage.line.Rlc_core.Line.c;
      length = cfg.h;
      segments = cfg.segments;
    }
    ~from_node:drv ~to_node:far;
  Netlist.add_capacitor nl far Netlist.ground (Rlc_core.Stage.cl stage);
  let t_end = (float_of_int cfg.bits +. 1.0) *. cfg.bit_period in
  let dt =
    match dt with Some d -> d | None -> Float.min (tau /. 200.0) (rise /. 4.0)
  in
  let result =
    Transient.simulate nl ~t_end ~dt ~probes:[ Transient.Node_v far ]
  in
  let w = Transient.get result (Transient.Node_v far) in
  (* sample each bit at 3/4 of its period, offset by the nominal delay *)
  let sample i =
    Rlc_waveform.Waveform.value_at w
      ((float_of_int i +. 0.75) *. cfg.bit_period +. tau)
  in
  let highs = ref [] and lows = ref [] in
  List.iteri
    (fun i b ->
      (* skip the first few warm-up bits *)
      if i >= 3 then
        if b then highs := sample i :: !highs else lows := sample i :: !lows)
    bits;
  if !highs = [] || !lows = [] then
    failwith "Eye.run: pattern too short to sample both levels";
  let eye_high = List.fold_left Float.min infinity !highs in
  let eye_low = List.fold_left Float.max neg_infinity !lows in
  (* per-transition delays: input edge times vs output 50% crossings *)
  let edge_times =
    let acc = ref [] and prev = ref false in
    List.iteri
      (fun i b ->
        if i >= 3 && b <> !prev then
          acc := (float_of_int i *. cfg.bit_period, b) :: !acc;
        prev := b)
      bits;
    List.rev !acc
  in
  let crossing_after t direction =
    let w_tail =
      Rlc_waveform.Waveform.slice w ~t0:t
        ~t1:(Float.min (Rlc_waveform.Waveform.t_end w) (t +. cfg.bit_period))
    in
    Rlc_waveform.Measure.first_crossing ~direction w_tail
      ~level:(0.5 *. vdd)
  in
  let delays =
    List.filter_map
      (fun (t, rising) ->
        match
          crossing_after t
            (if rising then Rlc_waveform.Measure.Rising
             else Rlc_waveform.Measure.Falling)
        with
        | Some tc -> Some (tc -. t)
        | None -> None)
      edge_times
  in
  if List.length delays < 2 then
    failwith "Eye.run: output misses transitions (eye collapsed)";
  let delay_min = List.fold_left Float.min infinity delays in
  let delay_max = List.fold_left Float.max neg_infinity delays in
  {
    eye_high;
    eye_low;
    eye_opening = (eye_high -. eye_low) /. vdd;
    delay_min;
    delay_max;
    jitter = delay_max -. delay_min;
  }
