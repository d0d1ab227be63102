(* The reference parser for the differential property in test_circuit.ml:
   the line-by-line, token-list parser the scanner in Parser replaced,
   kept verbatim below this header as an oracle. Test code only. *)

open Rlc_circuit

exception Parse_error of int * string

type ac_spec = { points_per_decade : int; fstart : float; fstop : float }

type deck = {
  netlist : Netlist.t;
  tran : (float * float) option;
  ac : ac_spec option;
  probes : Transient.probe list;
  title : string option;
}

(* ---------------- lexical helpers ---------------- *)

let lowercase = String.lowercase_ascii

let is_digitish c = (c >= '0' && c <= '9') || c = '.' || c = '+' || c = '-'

let parse_value s =
  let s = String.trim s in
  if s = "" then failwith "empty value";
  (* split numeric prefix / alphabetic suffix *)
  let n = String.length s in
  let rec numeric_end i saw_e =
    if i >= n then i
    else begin
      let c = s.[i] in
      if is_digitish c then numeric_end (i + 1) saw_e
      else if (c = 'e' || c = 'E') && not saw_e && i + 1 < n
              && (is_digitish s.[i + 1])
      then numeric_end (i + 1) true
      else i
    end
  in
  let split = numeric_end 0 false in
  if split = 0 then failwith ("malformed number: " ^ s);
  let base =
    match float_of_string_opt (String.sub s 0 split) with
    | Some v -> v
    | None -> failwith ("malformed number: " ^ s)
  in
  let suffix = lowercase (String.sub s split (n - split)) in
  let scale =
    if suffix = "" then 1.0
    else if String.length suffix >= 3 && String.sub suffix 0 3 = "meg" then 1e6
    else
      match suffix.[0] with
      | 'f' -> 1e-15
      | 'p' -> 1e-12
      | 'n' -> 1e-9
      | 'u' -> 1e-6
      | 'm' -> 1e-3
      | 'k' -> 1e3
      | 'g' -> 1e9
      | 't' -> 1e12
      (* bare unit letters: volts, amps, seconds, ohms, farads, henries *)
      | 'v' | 'a' | 's' | 'o' | 'h' -> 1.0
      | _ -> failwith ("unknown suffix: " ^ suffix)
  in
  base *. scale

let tokens_of_line line =
  (* strip comment tail: "$" or ";" *)
  let line =
    match String.index_opt line '$' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  (* normalize parens/commas to spaces but keep "k=v" forms intact *)
  let buf = Bytes.of_string line in
  Bytes.iteri
    (fun i c -> if c = '(' || c = ')' || c = ',' then Bytes.set buf i ' ')
    buf;
  String.split_on_char ' ' (Bytes.to_string buf)
  |> List.filter (fun t -> t <> "")

(* key=value parameters *)
let keyed_params tokens =
  List.filter_map
    (fun t ->
      match String.index_opt t '=' with
      | Some i ->
          Some
            ( lowercase (String.sub t 0 i),
              String.sub t (i + 1) (String.length t - i - 1) )
      | None -> None)
    tokens

let positional tokens =
  List.filter (fun t -> not (String.contains t '=')) tokens

(* ---------------- deck building ---------------- *)

type builder = {
  nl : Netlist.t;
  mutable b_tran : (float * float) option;
  mutable b_ac : ac_spec option;
  mutable probe_names : (int * string * [ `V | `I ]) list;
      (* (line, target, kind), resolved after the last card *)
}

(* The one rule for node names: case-insensitive, and "0"/"gnd" are
   ground.  The netlist's name table holds the lowercased keys. *)
let find_node nl name =
  match lowercase name with
  | "0" | "gnd" -> Some Netlist.ground
  | key -> Netlist.find_node nl key

(* registering the name on the netlist makes parsed decks
   order-independently hashable (Netlist.structural_hash labels nodes
   by name) and the deck's nodes findable by name *)
let node_id b name =
  match find_node b.nl name with
  | Some n -> n
  | None -> Netlist.fresh_node ~name:(lowercase name) b.nl

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

let value_or_fail lineno s =
  try parse_value s with Failure m -> fail lineno "%s" m

let require_params lineno params keys =
  List.map
    (fun k ->
      match List.assoc_opt k params with
      | Some v -> value_or_fail lineno v
      | None -> fail lineno "missing parameter %s=" k)
    keys

let parse_source b lineno name tokens =
  match tokens with
  | np :: nm :: kind :: rest ->
      let a = node_id b np and bb = node_id b nm in
      let stim =
        match lowercase kind with
        | "dc" -> begin
            match rest with
            | [ v ] -> Stimulus.Dc (value_or_fail lineno v)
            | _ -> fail lineno "DC takes one value"
          end
        | "pulse" -> begin
            match List.map (value_or_fail lineno) rest with
            | [ v0; v1; td; tr; tf; pw; per ] ->
                Stimulus.Pulse
                  {
                    v0;
                    v1;
                    t_delay = td;
                    t_rise = tr;
                    t_fall = tf;
                    t_high = pw;
                    period = per;
                  }
            | _ -> fail lineno "PULSE takes 7 values"
          end
        | "pwl" -> begin
            let vals = List.map (value_or_fail lineno) rest in
            let rec pair = function
              | [] -> []
              | t :: v :: rest -> (t, v) :: pair rest
              | [ _ ] -> fail lineno "PWL needs an even number of values"
            in
            Stimulus.Pwl (pair vals)
          end
        | k -> fail lineno "unknown source kind %s" k
      in
      (a, bb, stim, name)
  | _ -> fail lineno "source needs nodes and a waveform"

let dispatch b lineno line =
  let tokens = tokens_of_line line in
  match tokens with
  | [] -> ()
  | first :: rest -> begin
      let name = first in
      match Char.lowercase_ascii first.[0] with
      | '*' -> ()
      | '.' -> begin
          match lowercase first with
          | ".end" -> ()
          | ".tran" -> begin
              match rest with
              | [ dt; t_end ] ->
                  b.b_tran <-
                    Some (value_or_fail lineno dt, value_or_fail lineno t_end)
              | _ -> fail lineno ".tran takes dt and t_end"
            end
          | ".ac" -> begin
              match rest with
              | [ kind; n; fstart; fstop ] when lowercase kind = "dec" ->
                  let points_per_decade =
                    int_of_float (value_or_fail lineno n)
                  in
                  let fstart = value_or_fail lineno fstart in
                  let fstop = value_or_fail lineno fstop in
                  if points_per_decade < 1 then
                    fail lineno ".ac dec needs at least 1 point per decade";
                  if fstart <= 0.0 || fstop < fstart then
                    fail lineno ".ac dec needs 0 < fstart <= fstop";
                  b.b_ac <- Some { points_per_decade; fstart; fstop }
              | _ -> fail lineno ".ac takes: dec n fstart fstop"
            end
          | ".probe" ->
              (* parens were split into spaces: "v(out)" -> "v" "out" *)
              let rec walk = function
                | [] -> ()
                | kind :: target :: more when lowercase kind = "v" ->
                    b.probe_names <- (lineno, target, `V) :: b.probe_names;
                    walk more
                | kind :: target :: more when lowercase kind = "i" ->
                    b.probe_names <- (lineno, target, `I) :: b.probe_names;
                    walk more
                | t :: _ -> fail lineno "probe must be v(node) or i(elem), got %s" t
              in
              walk rest
          | d -> fail lineno "unknown directive %s" d
        end
      | 'r' -> begin
          match positional rest with
          | [ n1; n2; v ] ->
              Netlist.add_resistor ~name b.nl (node_id b n1) (node_id b n2)
                (value_or_fail lineno v)
          | _ -> fail lineno "R takes: n1 n2 value"
        end
      | 'c' -> begin
          match positional rest with
          | [ n1; n2; v ] ->
              Netlist.add_capacitor ~name b.nl (node_id b n1) (node_id b n2)
                (value_or_fail lineno v)
          | _ -> fail lineno "C takes: n1 n2 value"
        end
      | 'l' -> begin
          match positional rest with
          | [ n1; n2; v ] ->
              Netlist.add_inductor ~name b.nl (node_id b n1) (node_id b n2)
                (value_or_fail lineno v)
          | _ -> fail lineno "L takes: n1 n2 value"
        end
      | 'b' -> begin
          (* series R-L branch (one lumped line segment) *)
          match positional rest with
          | [ n1; n2 ] -> begin
              match require_params lineno (keyed_params rest) [ "r"; "l" ] with
              | [ r; l ] ->
                  Netlist.add_rl_branch ~name b.nl (node_id b n1)
                    (node_id b n2) ~ohms:r ~henries:l
              | _ -> assert false
            end
          | _ -> fail lineno "B takes: n1 n2 r= l="
        end
      | 'w' -> begin
          match positional rest with
          | [ n1; n2 ] ->
              let params = keyed_params rest in
              let seg =
                match List.assoc_opt "seg" params with
                | Some v -> int_of_float (value_or_fail lineno v)
                | None -> 10
              in
              (match require_params lineno params [ "r"; "l"; "c"; "len" ] with
              | [ r; l; c; len ] ->
                  Ladder.make ~name_prefix:name b.nl
                    { Ladder.r; l; c; length = len; segments = seg }
                    ~from_node:(node_id b n1) ~to_node:(node_id b n2)
              | _ -> assert false)
          | _ -> fail lineno "W takes: n1 n2 r= l= c= len= [seg=]"
        end
      | 'p' -> begin
          match positional rest with
          | [ a1; b1; a2; b2 ] -> begin
              match require_params lineno (keyed_params rest) [ "r"; "l"; "m" ]
              with
              | [ r; l; m ] ->
                  Netlist.add_coupled_rl ~name b.nl ~a1:(node_id b a1)
                    ~b1:(node_id b b1) ~a2:(node_id b a2) ~b2:(node_id b b2)
                    ~ohms:r ~henries:l ~mutual:m
              | _ -> assert false
            end
          | _ -> fail lineno "P takes: a1 b1 a2 b2 r= l= m="
        end
      | 'v' | 'i' -> begin
          let a, bb, stim, nm = parse_source b lineno name (positional rest) in
          if Char.lowercase_ascii first.[0] = 'v' then
            Netlist.add_vsource ~name:nm b.nl a bb stim
          else Netlist.add_isource ~name:nm b.nl a bb stim
        end
      | 'x' -> begin
          match positional rest with
          | [ input; output; kind ] when lowercase kind = "inv" -> begin
              let params = keyed_params rest in
              match
                require_params lineno params [ "r_on"; "c_in"; "c_out"; "vdd" ]
              with
              | [ r_on; c_in; c_out; vdd ] ->
                  let vth =
                    Option.map (value_or_fail lineno)
                      (List.assoc_opt "vth" params)
                  in
                  let t_transition =
                    Option.map (value_or_fail lineno)
                      (List.assoc_opt "ttr" params)
                  in
                  let dev =
                    Devices.inverter ~r_on ~c_in ~c_out ~vdd ?vth ?t_transition
                      ()
                  in
                  Netlist.add_inverter ~name b.nl ~input:(node_id b input)
                    ~output:(node_id b output) dev
              | _ -> assert false
            end
          | _ -> fail lineno "X takes: in out INV r_on= c_in= c_out= vdd="
        end
      | c -> fail lineno "unknown card type '%c'" c
    end

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let b =
    {
      nl = Netlist.create ();
      b_tran = None;
      b_ac = None;
      probe_names = [];
    }
  in
  let title, body, offset =
    match lines with
    | first :: rest ->
        let t = String.trim first in
        if t = "" then (None, rest, 1)
        else begin
          let c = Char.lowercase_ascii t.[0] in
          let toks = tokens_of_line t in
          (* a card's trailing token is a value or key=value; a title
             like "rc lowpass demo" is not *)
          let last_is_valueish =
            match List.rev toks with
            | last :: _ -> (
                String.contains last '='
                || match parse_value last with _ -> true
                   | exception Failure _ -> false)
            | [] -> false
          in
          let cardlike =
            c = '*' || c = '.'
            || (String.contains "rclwpvixb" c
               && List.length toks >= 3 && last_is_valueish)
          in
          if cardlike then (None, lines, 0) else (Some t, rest, 1)
        end
    | [] -> (None, [], 0)
  in
  ignore title;
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" then dispatch b (i + 1 + offset) line)
    body;
  let probes =
    List.rev_map
      (fun (lineno, target, kind) ->
        match kind with
        | `V -> begin
            match find_node b.nl target with
            | Some n -> Transient.Node_v n
            | None -> fail lineno "probe of unknown node %s" target
          end
        | `I -> Transient.Branch_i target)
      b.probe_names
  in
  { netlist = b.nl; tran = b.b_tran; ac = b.b_ac; probes; title }

let node_of_name deck name = find_node deck.netlist name

let name_of_node deck node =
  if node = Netlist.ground then Some "0"
  else Netlist.node_name deck.netlist node

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      parse_string (really_input_string ic len))

let run ?config deck =
  match deck.tran with
  | None -> invalid_arg "Parser.run: deck has no .tran card"
  | Some (dt, t_end) ->
      if deck.probes = [] then invalid_arg "Parser.run: deck has no probes";
      Transient.simulate ?config deck.netlist ~t_end ~dt ~probes:deck.probes
