type spec = {
  r : float;
  l : float;
  c : float;
  length : float;
  segments : int;
}

let make ?(name_prefix = "line") netlist spec ~from_node ~to_node =
  if spec.length <= 0.0 then invalid_arg "Ladder.make: length <= 0";
  if spec.r <= 0.0 || spec.c <= 0.0 || spec.l < 0.0 then
    invalid_arg "Ladder.make: non-physical line parameters";
  if spec.segments < 1 then invalid_arg "Ladder.make: segments < 1";
  let n = spec.segments in
  (* a W card of a deck expands here: the names are built without
     Printf, which would dominate a long line's parse *)
  let name part k = String.concat "" [ name_prefix; part; string_of_int k ] in
  (* the internal joints follow the deck's node rule: their names are
     lowercased, and a joint another card already named is joined *)
  let joint_prefix = String.lowercase_ascii name_prefix ^ "_n" in
  let joint k =
    let key = joint_prefix ^ string_of_int k in
    match Netlist.find_node netlist key with
    | Some node -> node
    | None -> Netlist.fresh_node ~name:key netlist
  in
  let dh = spec.length /. float_of_int n in
  let r_seg = spec.r *. dh in
  let l_seg = spec.l *. dh in
  let c_seg = spec.c *. dh in
  (* half capacitor at the input, half at the far end; full shunt at
     every internal joint: total capacitance = c * length exactly *)
  Netlist.add_capacitor
    ~name:(name_prefix ^ "_cin")
    netlist from_node Netlist.ground (c_seg /. 2.0);
  let rec build i node =
    if i = n then node
    else begin
      let next = if i = n - 1 then to_node else joint (i + 1) in
      Netlist.add_rl_branch
        ~name:(name "_seg" i)
        netlist node next ~ohms:r_seg ~henries:l_seg;
      let shunt = if i = n - 1 then c_seg /. 2.0 else c_seg in
      Netlist.add_capacitor
        ~name:(name "_c" (i + 1))
        netlist next Netlist.ground shunt;
      build (i + 1) next
    end
  in
  ignore (build 0 from_node)

let input_current_probe ?(name_prefix = "line") () =
  Transient.Branch_i (name_prefix ^ "_seg0")

let driven_line ?(name_prefix = "line") ?(vdd = 1.0) ?(t_rise = 0.0) spec =
  let nl = Netlist.create () in
  let src = Netlist.fresh_node ~name:(name_prefix ^ "_src") nl in
  Netlist.add_vsource ~name:(name_prefix ^ "_drv") nl src Netlist.ground
    (if t_rise <= 0.0 then Stimulus.Dc vdd
     else Stimulus.Step { v0 = 0.0; v1 = vdd; t_delay = 0.0; t_rise });
  (* the far node is allocated before the internal joints on purpose:
     a bandwidth-friendly node numbering must NOT be assumed by the
     transient engine (it reorders the unknowns itself) *)
  let far = Netlist.fresh_node ~name:(name_prefix ^ "_far") nl in
  make ~name_prefix nl spec ~from_node:src ~to_node:far;
  (nl, src, far)

type coupled_spec = {
  r : float;
  l_self : float;
  l_mutual : float;
  c_ground : float;
  c_coupling : float;
  length : float;
  segments : int;
}

let make_coupled ?(name_prefix = "pair") netlist spec ~from1 ~to1 ~from2 ~to2 =
  if spec.length <= 0.0 then invalid_arg "Ladder.make_coupled: length <= 0";
  if spec.r <= 0.0 || spec.c_ground <= 0.0 then
    invalid_arg "Ladder.make_coupled: non-physical line parameters";
  if spec.c_coupling < 0.0 then
    invalid_arg "Ladder.make_coupled: c_coupling < 0";
  if spec.l_self <= 0.0 || spec.l_mutual < 0.0 || spec.l_mutual >= spec.l_self
  then invalid_arg "Ladder.make_coupled: need 0 <= l_mutual < l_self";
  if spec.segments < 1 then invalid_arg "Ladder.make_coupled: segments < 1";
  let n = spec.segments in
  let dh = spec.length /. float_of_int n in
  let r_seg = spec.r *. dh in
  let l_seg = spec.l_self *. dh in
  let m_seg = spec.l_mutual *. dh in
  let cg_seg = spec.c_ground *. dh in
  let cc_seg = spec.c_coupling *. dh in
  let cap which node farads =
    Netlist.add_capacitor
      ~name:(Printf.sprintf "%s_%s" name_prefix which)
      netlist node Netlist.ground farads
  in
  cap "cin1" from1 (cg_seg /. 2.0);
  cap "cin2" from2 (cg_seg /. 2.0);
  Netlist.add_capacitor
    ~name:(name_prefix ^ "_ccin")
    netlist from1 from2 (cc_seg /. 2.0);
  let rec build i n1 n2 =
    if i = n then ()
    else begin
      let next1, next2 =
        if i = n - 1 then (to1, to2)
        else
          ( Netlist.fresh_node
              ~name:(Printf.sprintf "%s_a%d" name_prefix (i + 1))
              netlist,
            Netlist.fresh_node
              ~name:(Printf.sprintf "%s_b%d" name_prefix (i + 1))
              netlist )
      in
      Netlist.add_coupled_rl
        ~name:(Printf.sprintf "%s_seg%d" name_prefix i)
        netlist ~a1:n1 ~b1:next1 ~a2:n2 ~b2:next2 ~ohms:r_seg ~henries:l_seg
        ~mutual:m_seg;
      let half = i = n - 1 in
      let cg = if half then cg_seg /. 2.0 else cg_seg in
      let cc = if half then cc_seg /. 2.0 else cc_seg in
      cap (Printf.sprintf "cg1_%d" (i + 1)) next1 cg;
      cap (Printf.sprintf "cg2_%d" (i + 1)) next2 cg;
      Netlist.add_capacitor
        ~name:(Printf.sprintf "%s_cc%d" name_prefix (i + 1))
        netlist next1 next2 cc;
      build (i + 1) next1 next2
    end
  in
  build 0 from1 from2
