let value v = Printf.sprintf "%.9g" v

let stimulus_to_string = function
  | Stimulus.Dc v -> Printf.sprintf "DC %s" (value v)
  | Stimulus.Pulse { v0; v1; t_delay; t_rise; t_high; t_fall; period } ->
      Printf.sprintf "PULSE(%s %s %s %s %s %s %s)" (value v0) (value v1)
        (value t_delay) (value t_rise) (value t_fall) (value t_high)
        (value period)
  | Stimulus.Pwl corners ->
      Printf.sprintf "PWL(%s)"
        (String.concat " "
           (List.map (fun (t, v) -> value t ^ " " ^ value v) corners))
  | Stimulus.Step { v0; v1; t_delay; t_rise } ->
      Printf.sprintf "PWL(0 %s %s %s %s %s)" (value v0) (value t_delay)
        (value v0)
        (value (t_delay +. t_rise))
        (value v1)

let node_name ?deck n =
  match Option.bind deck (fun d -> Parser.name_of_node d n) with
  | Some name -> name
  | None -> if n = Netlist.ground then "0" else Printf.sprintf "n%d" n

let netlist_to_string_inner ?deck ?title netlist =
  let buf = Buffer.create 256 in
  (match title with
  | Some t -> Buffer.add_string buf (t ^ "\n")
  | None -> ());
  let nn = node_name ?deck in
  Array.iteri
    (fun id e ->
      let name = Netlist.element_name netlist id in
      (* the parser dispatches on the card's first letter, so a name
         that does not start with its element's letter (auto-generated
         "_e3", a ladder's "line_seg0" R-L branch, ...) gets the letter
         prefixed; round-tripping preserves structure, not names *)
      let card letter nm =
        if
          nm <> ""
          && Char.lowercase_ascii nm.[0] = Char.lowercase_ascii letter.[0]
        then nm
        else letter ^ nm
      in
      let line =
        match e with
        | Netlist.Resistor { a; b; ohms } ->
            Printf.sprintf "%s %s %s %s" (card "R" name) (nn a) (nn b)
              (value ohms)
        | Netlist.Capacitor { a; b; farads } ->
            Printf.sprintf "%s %s %s %s" (card "C" name) (nn a) (nn b)
              (value farads)
        | Netlist.Rl_branch { a; b; ohms; henries } ->
            Printf.sprintf "%s %s %s r=%s l=%s" (card "B" name) (nn a) (nn b)
              (value ohms) (value henries)
        | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
            Printf.sprintf "%s %s %s %s %s r=%s l=%s m=%s" (card "P" name)
              (nn a1) (nn b1) (nn a2) (nn b2) (value ohms) (value henries)
              (value mutual)
        | Netlist.Vsource { a; b; stim } ->
            Printf.sprintf "%s %s %s %s" (card "V" name) (nn a) (nn b)
              (stimulus_to_string stim)
        | Netlist.Isource { a; b; stim } ->
            Printf.sprintf "%s %s %s %s" (card "I" name) (nn a) (nn b)
              (stimulus_to_string stim)
        | Netlist.Inverter { input; output; dev } ->
            Printf.sprintf
              "%s %s %s INV r_on=%s c_in=%s c_out=%s vdd=%s vth=%s ttr=%s"
              (card "X" name) (nn input) (nn output)
              (value dev.Devices.r_on)
              (value dev.Devices.c_in)
              (value dev.Devices.c_out)
              (value dev.Devices.vdd)
              (value dev.Devices.vth)
              (value dev.Devices.t_transition)
      in
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (Netlist.elements netlist);
  buf

let netlist_to_string ?title netlist =
  let buf = netlist_to_string_inner ?title netlist in
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let deck_to_string deck =
  let buf =
    netlist_to_string_inner ~deck ?title:deck.Parser.title
      deck.Parser.netlist
  in
  (match deck.Parser.tran with
  | Some (dt, t_end) ->
      Buffer.add_string buf
        (Printf.sprintf ".tran %s %s\n" (value dt) (value t_end))
  | None -> ());
  if deck.Parser.probes <> [] then begin
    Buffer.add_string buf ".probe";
    List.iter
      (fun p ->
        Buffer.add_string buf
          (match p with
          | Transient.Node_v n ->
              Printf.sprintf " v(%s)" (node_name ~deck n)
          | Transient.Branch_i name -> Printf.sprintf " i(%s)" name))
      deck.Parser.probes;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
