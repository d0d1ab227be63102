exception Parse_error of int * string

type ac_spec = { points_per_decade : int; fstart : float; fstop : float }

type deck = {
  netlist : Netlist.t;
  tran : (float * float) option;
  ac : ac_spec option;
  probes : Transient.probe list;
  title : string option;
}

(* ---------------- values ---------------- *)

(* Everything below reads the deck text in place: a line, a token and a
   value are offset ranges [lo, hi) into it, and a string is cut from
   the text only where one is kept (a node, element or probe name, the
   title, an error message). *)

(* the bytes [String.trim] strips *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let is_digit c = c >= '0' && c <= '9'
let is_digitish c = is_digit c || c = '.' || c = '+' || c = '-'

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* [s.[lo..hi)] as a float when it is [sign? digits [. digits] [e sign?
   digits]] with at most 15 significant digits and a decimal exponent
   within +-22: the digits then form an exact integer m < 2^53 and the
   power of ten is exact, so [m *. 10^e] (or [m /. 10^-e]) is one
   correctly rounded operation — the double [float_of_string] returns.
   [nan] when the text is outside that form; the caller falls back. *)
let decimal s lo hi =
  let i = ref lo in
  let neg = !i < hi && s.[!i] = '-' in
  if !i < hi && (s.[!i] = '-' || s.[!i] = '+') then incr i;
  (* m collects the first 15 significant digits; [digits] counts all *)
  let m = ref 0 and sig_digits = ref 0 and frac = ref 0 and digits = ref 0 in
  let dot = ref false in
  while
    !i < hi
    && (is_digit s.[!i] || (s.[!i] = '.' && not !dot))
  do
    if s.[!i] = '.' then dot := true
    else begin
      let d = Char.code s.[!i] - 48 in
      if !m > 0 || d > 0 then incr sig_digits;
      if !sig_digits <= 15 then m := (!m * 10) + d;
      if !dot then incr frac;
      incr digits
    end;
    incr i
  done;
  let exp = ref 0 and exp_ok = ref true in
  if !i < hi && (s.[!i] = 'e' || s.[!i] = 'E') then begin
    incr i;
    let eneg = !i < hi && s.[!i] = '-' in
    if !i < hi && (s.[!i] = '-' || s.[!i] = '+') then incr i;
    exp_ok := !i < hi && is_digit s.[!i];
    while !i < hi && is_digit s.[!i] do
      if !exp < 100_000 then exp := (!exp * 10) + Char.code s.[!i] - 48;
      incr i
    done;
    if eneg then exp := - !exp
  end;
  let e = !exp - !frac in
  if !i < hi || !digits = 0 || (not !exp_ok) || !sig_digits > 15 then Float.nan
  else if !m = 0 then if neg then -0.0 else 0.0
  else
    let v =
      if e >= 0 && e <= 22 then float_of_int !m *. pow10.(e)
      else if e < 0 && e >= -22 then float_of_int !m /. pow10.(-e)
      else Float.nan
    in
    if neg then -.v else v

let lower_is s i c = Char.lowercase_ascii (String.unsafe_get s i) = c

(* the end of the numeric prefix of [s.[i..hi)]: digits, '.', signs and
   one exponent letter followed by one of those *)
let rec numeric_end s i hi saw_e =
  if i >= hi then i
  else begin
    let c = s.[i] in
    if is_digitish c then numeric_end s (i + 1) hi saw_e
    else if
      (c = 'e' || c = 'E') && (not saw_e) && i + 1 < hi
      && is_digitish s.[i + 1]
    then numeric_end s (i + 1) hi true
    else i
  end

let malformed s lo hi =
  failwith ("malformed number: " ^ String.sub s lo (hi - lo))

let scale_of s split hi =
  if split = hi then 1.0
  else if
    hi - split >= 3 && lower_is s split 'm' && lower_is s (split + 1) 'e'
    && lower_is s (split + 2) 'g'
  then 1e6
  else
    match Char.lowercase_ascii s.[split] with
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
    | _ ->
        failwith
          ("unknown suffix: "
          ^ String.lowercase_ascii (String.sub s split (hi - split)))

(* The SPICE number in [s.[lo..hi)]: a numeric prefix and a magnitude
   suffix.  Raises [Failure] like {!parse_value}. *)
let value_in s lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_blank s.[!lo] do incr lo done;
  while !hi > !lo && is_blank s.[!hi - 1] do decr hi done;
  let lo = !lo and hi = !hi in
  if lo = hi then failwith "empty value";
  let split = numeric_end s lo hi false in
  if split = lo then malformed s lo hi;
  let base = decimal s lo split in
  let base =
    if Float.is_nan base then
      match float_of_string_opt (String.sub s lo (split - lo)) with
      | Some v -> v
      | None -> malformed s lo hi
    else base
  in
  base *. scale_of s split hi

let parse_value s = value_in s 0 (String.length s)

(* ---------------- the line scanner ---------------- *)

(* The tokens of the current line: [n] offset ranges [lo.(k), hi.(k)),
   with [eq.(k)] the offset of the token's first '=' (or -1).  Tokens
   are separated by spaces, parentheses and commas; a '$' or ';' ends
   the line. *)
type scan = {
  text : string;
  mutable lo : int array;
  mutable hi : int array;
  mutable eq : int array;
  mutable n : int;
  mutable pos : int array;
      (* the indices of the line's positional (no '=') tokens after
         the first *)
  mutable npos : int;
}

let grow a = Array.append a (Array.make (Array.length a) 0)

(* byte classes for the tokenizer: 0 a token byte, 1 a separator
   (space, parentheses, comma), 2 the end of the line's content ('$'
   or ';'), 3 '=' *)
let byte_class =
  Bytes.init 256 (fun i ->
      match Char.chr i with
      | ' ' | '(' | ')' | ',' -> '\001'
      | '$' | ';' -> '\002'
      | '=' -> '\003'
      | _ -> '\000')

let[@inline] class_at s i =
  Char.code (Bytes.unsafe_get byte_class (Char.code (String.unsafe_get s i)))

let tokenize sc lo hi =
  let s = sc.text in
  sc.n <- 0;
  sc.npos <- 0;
  let i = ref lo and stop = ref hi in
  (* [lo, hi) is within the text, so the reads below are in bounds *)
  while !i < !stop do
    match class_at s !i with
    | 1 -> incr i
    | 2 -> stop := !i
    | _ ->
        let start = !i and eq = ref (-1) in
        while
          !i < !stop
          &&
          match class_at s !i with
          | 0 -> true
          | 3 ->
              if !eq < 0 then eq := !i;
              true
          | _ -> false
        do
          incr i
        done;
        if sc.n = Array.length sc.lo then begin
          sc.lo <- grow sc.lo;
          sc.hi <- grow sc.hi;
          sc.eq <- grow sc.eq;
          sc.pos <- grow sc.pos
        end;
        let k = sc.n in
        sc.lo.(k) <- start;
        sc.hi.(k) <- !i;
        sc.eq.(k) <- !eq;
        sc.n <- k + 1;
        if k > 0 && !eq < 0 then begin
          sc.pos.(sc.npos) <- k;
          sc.npos <- sc.npos + 1
        end
  done

let token sc k = String.sub sc.text sc.lo.(k) (sc.hi.(k) - sc.lo.(k))

(* [s.[lo..lo + |lit|)] equals the lowercase literal [lit], in any
   case, from byte [i] on *)
let rec lower_eq s lo lit i =
  i = String.length lit
  || (lower_is s (lo + i) lit.[i] && lower_eq s lo lit (i + 1))

(* token [k] equals the lowercase literal [lit], in any case *)
let token_is sc k lit =
  sc.hi.(k) - sc.lo.(k) = String.length lit && lower_eq sc.text sc.lo.(k) lit 0

(* the first token after the card name whose key (before its first
   '=') is [key] in any case, or -1 *)
let param sc key =
  let k = ref 1 in
  while
    !k < sc.n
    && not
         (sc.eq.(!k) - sc.lo.(!k) = String.length key
         && lower_eq sc.text sc.lo.(!k) key 0)
  do
    incr k
  done;
  if !k < sc.n then !k else -1

(* a name as the deck's one rule keeps it: lowercased, copied once *)
let lower_name s lo hi =
  let name = String.sub s lo (hi - lo) in
  let i = ref lo in
  while !i < hi && not (s.[!i] >= 'A' && s.[!i] <= 'Z') do incr i done;
  if !i < hi then String.lowercase_ascii name else name

(* ---------------- deck building ---------------- *)

type builder = {
  nl : Netlist.t;
  sc : scan;
  mutable b_tran : (float * float) option;
  mutable b_ac : ac_spec option;
  mutable probe_names : (int * string * [ `V | `I ]) list;
      (* (line, target, kind), resolved after the last card *)
}

(* The one rule for node names: case-insensitive, and "0"/"gnd" are
   ground.  The netlist's name table holds the lowercased keys. *)
let node_of_key nl = function
  | "0" | "gnd" -> Some Netlist.ground
  | key -> Netlist.find_node nl key

let find_node nl name = node_of_key nl (String.lowercase_ascii name)

(* registering the name on the netlist makes parsed decks
   order-independently hashable (Netlist.structural_hash labels nodes
   by name) and the deck's nodes findable by name *)
let node b k =
  let key = lower_name b.sc.text b.sc.lo.(k) b.sc.hi.(k) in
  match node_of_key b.nl key with
  | Some n -> n
  | None -> Netlist.fresh_node ~name:key b.nl

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

let value_range lineno s lo hi =
  try value_in s lo hi with Failure m -> fail lineno "%s" m

(* the value of token [k] *)
let value b lineno k = value_range lineno b.sc.text b.sc.lo.(k) b.sc.hi.(k)

(* the value of parameter [key], which the card must carry *)
let required b lineno key =
  match param b.sc key with
  | -1 -> fail lineno "missing parameter %s=" key
  | k -> value_range lineno b.sc.text (b.sc.eq.(k) + 1) b.sc.hi.(k)

let optional b lineno key =
  match param b.sc key with
  | -1 -> None
  | k -> Some (value_range lineno b.sc.text (b.sc.eq.(k) + 1) b.sc.hi.(k))

(* positional token [i] after the card name *)
let pos b i = b.sc.pos.(i)

let source_stim b lineno =
  let sc = b.sc in
  let rest = sc.npos - 3 in
  let values () =
    let acc = ref [] in
    for i = 3 to sc.npos - 1 do
      acc := value b lineno (pos b i) :: !acc
    done;
    List.rev !acc
  in
  let kind = pos b 2 in
  if token_is sc kind "dc" then
    if rest = 1 then Stimulus.Dc (value b lineno (pos b 3))
    else fail lineno "DC takes one value"
  else if token_is sc kind "pulse" then
    match values () with
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
  else if token_is sc kind "pwl" then begin
    let vals = values () in
    let rec pair = function
      | [] -> []
      | t :: v :: rest -> (t, v) :: pair rest
      | [ _ ] -> fail lineno "PWL needs an even number of values"
    in
    Stimulus.Pwl (pair vals)
  end
  else
    fail lineno "unknown source kind %s"
      (String.lowercase_ascii (token sc kind))

let directive b lineno =
  let sc = b.sc in
  if token_is sc 0 ".end" then ()
  else if token_is sc 0 ".tran" then begin
    if sc.n <> 3 then fail lineno ".tran takes dt and t_end";
    (* t_end is read first: a card with two bad values reports t_end's *)
    let t_end = value b lineno 2 in
    b.b_tran <- Some (value b lineno 1, t_end)
  end
  else if token_is sc 0 ".ac" then begin
    if not (sc.n = 5 && token_is sc 1 "dec") then
      fail lineno ".ac takes: dec n fstart fstop";
    let points_per_decade = int_of_float (value b lineno 2) in
    let fstart = value b lineno 3 in
    let fstop = value b lineno 4 in
    if points_per_decade < 1 then
      fail lineno ".ac dec needs at least 1 point per decade";
    if fstart <= 0.0 || fstop < fstart then
      fail lineno ".ac dec needs 0 < fstart <= fstop";
    b.b_ac <- Some { points_per_decade; fstart; fstop }
  end
  else if token_is sc 0 ".probe" then begin
    (* parens separate tokens: "v(out)" -> "v" "out" *)
    let k = ref 1 in
    while !k < sc.n do
      let kind =
        if !k + 1 >= sc.n then None
        else if token_is sc !k "v" then Some `V
        else if token_is sc !k "i" then Some `I
        else None
      in
      match kind with
      | Some kind ->
          b.probe_names <- (lineno, token sc (!k + 1), kind) :: b.probe_names;
          k := !k + 2
      | None ->
          fail lineno "probe must be v(node) or i(elem), got %s" (token sc !k)
    done
  end
  else fail lineno "unknown directive %s" (String.lowercase_ascii (token sc 0))

(* One card on the trimmed line [lo, hi).  Values are read before
   nodes, and a card's new nodes are numbered last node first, except a
   source's, first node first: the order decks have always been
   numbered in, which the structural signature and every matrix
   depend on. *)
let dispatch b lineno lo hi =
  let sc = b.sc in
  tokenize sc lo hi;
  if sc.n > 0 then begin
    let np = sc.npos in
    match Char.lowercase_ascii sc.text.[sc.lo.(0)] with
    | '*' -> ()
    | '.' -> directive b lineno
    | ('r' | 'c' | 'l') as c ->
        if np <> 3 then
          fail lineno "%c takes: n1 n2 value" (Char.uppercase_ascii c);
        let name = token sc 0 in
        let v = value b lineno (pos b 2) in
        let n2 = node b (pos b 1) in
        let n1 = node b (pos b 0) in
        (match c with
        | 'r' -> Netlist.add_resistor ~name b.nl n1 n2 v
        | 'c' -> Netlist.add_capacitor ~name b.nl n1 n2 v
        | _ -> Netlist.add_inductor ~name b.nl n1 n2 v)
    | 'b' ->
        (* series R-L branch (one lumped line segment) *)
        if np <> 2 then fail lineno "B takes: n1 n2 r= l=";
        let name = token sc 0 in
        let r = required b lineno "r" in
        let l = required b lineno "l" in
        let n2 = node b (pos b 1) in
        let n1 = node b (pos b 0) in
        Netlist.add_rl_branch ~name b.nl n1 n2 ~ohms:r ~henries:l
    | 'w' ->
        if np <> 2 then fail lineno "W takes: n1 n2 r= l= c= len= [seg=]";
        let name = token sc 0 in
        let seg =
          match optional b lineno "seg" with
          | Some v -> int_of_float v
          | None -> 10
        in
        let r = required b lineno "r" in
        let l = required b lineno "l" in
        let c = required b lineno "c" in
        let len = required b lineno "len" in
        let to_node = node b (pos b 1) in
        let from_node = node b (pos b 0) in
        Ladder.make ~name_prefix:name b.nl
          { Ladder.r; l; c; length = len; segments = seg }
          ~from_node ~to_node
    | 'p' ->
        if np <> 4 then fail lineno "P takes: a1 b1 a2 b2 r= l= m=";
        let name = token sc 0 in
        let r = required b lineno "r" in
        let l = required b lineno "l" in
        let m = required b lineno "m" in
        let b2 = node b (pos b 3) in
        let a2 = node b (pos b 2) in
        let b1 = node b (pos b 1) in
        let a1 = node b (pos b 0) in
        Netlist.add_coupled_rl ~name b.nl ~a1 ~b1 ~a2 ~b2 ~ohms:r ~henries:l
          ~mutual:m
    | ('v' | 'i') as c ->
        if np < 3 then fail lineno "source needs nodes and a waveform";
        let name = token sc 0 in
        let na = node b (pos b 0) in
        let nb = node b (pos b 1) in
        let stim = source_stim b lineno in
        if c = 'v' then Netlist.add_vsource ~name b.nl na nb stim
        else Netlist.add_isource ~name b.nl na nb stim
    | 'x' ->
        if not (np = 3 && token_is sc (pos b 2) "inv") then
          fail lineno "X takes: in out INV r_on= c_in= c_out= vdd=";
        let name = token sc 0 in
        let r_on = required b lineno "r_on" in
        let c_in = required b lineno "c_in" in
        let c_out = required b lineno "c_out" in
        let vdd = required b lineno "vdd" in
        let vth = optional b lineno "vth" in
        let t_transition = optional b lineno "ttr" in
        let dev =
          Devices.inverter ~r_on ~c_in ~c_out ~vdd ?vth ?t_transition ()
        in
        let output = node b (pos b 1) in
        let input = node b (pos b 0) in
        Netlist.add_inverter ~name b.nl ~input ~output dev
    | c -> fail lineno "unknown card type '%c'" c
  end

(* A first line is a card when it starts with '*' or '.', or with a
   card letter and has three or more tokens, the last a value or
   key=value; a title like "rc lowpass demo" is not. *)
let cardlike sc lo hi =
  match Char.lowercase_ascii sc.text.[lo] with
  | '*' | '.' -> true
  | c when String.contains "rclwpvixb" c ->
      tokenize sc lo hi;
      sc.n >= 3
      &&
      let k = sc.n - 1 in
      sc.eq.(k) >= 0
      || (match value_in sc.text sc.lo.(k) sc.hi.(k) with
         | _ -> true
         | exception Failure _ -> false)
  | _ -> false

let parse_string text =
  let sc =
    { text; lo = Array.make 16 0; hi = Array.make 16 0; eq = Array.make 16 0;
      n = 0; pos = Array.make 16 0; npos = 0 }
  in
  let b =
    { nl = Netlist.create (); sc; b_tran = None; b_ac = None; probe_names = [] }
  in
  let len = String.length text in
  let title = ref None in
  (* lines are the '\n'-separated pieces, numbered from 1 and trimmed;
     blank lines are skipped *)
  let start = ref 0 and lineno = ref 1 in
  while !start <= len do
    let stop = ref !start in
    while !stop < len && String.unsafe_get text !stop <> '\n' do incr stop done;
    let lo = ref !start and hi = ref !stop in
    while !lo < !hi && is_blank text.[!lo] do incr lo done;
    while !hi > !lo && is_blank text.[!hi - 1] do decr hi done;
    if !lo < !hi then begin
      if !lineno = 1 && not (cardlike sc !lo !hi) then
        title := Some (String.sub text !lo (!hi - !lo))
      else dispatch b !lineno !lo !hi
    end;
    start := !stop + 1;
    incr lineno
  done;
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
  { netlist = b.nl; tran = b.b_tran; ac = b.b_ac; probes; title = !title }

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
