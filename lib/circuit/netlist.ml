type node = int

let ground = 0

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Capacitor of { a : node; b : node; farads : float }
  | Rl_branch of { a : node; b : node; ohms : float; henries : float }
  | Coupled_rl of {
      a1 : node;
      b1 : node;
      a2 : node;
      b2 : node;
      ohms : float;
      henries : float;
      mutual : float;
    }
  | Vsource of { a : node; b : node; stim : Stimulus.t }
  | Isource of { a : node; b : node; stim : Stimulus.t }
  | Inverter of { input : node; output : node; dev : Devices.inverter }

(* 63-bit mixing (the splitmix64 finaliser with its constants cut to
   OCaml's int width): every input bit reaches every output bit. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
  x lxor (x lsr 32)

let hash_name s =
  let h = ref 0x2545f4914f6cdd1d in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  mix !h

(* A name -> id index: an open-addressed table with linear probing,
   kept at most half full; [ids.(h)] is -1 when position [h] is empty,
   else the id of name [keys.(h)]. *)
module Index = struct
  type t = {
    mutable keys : string array;
    mutable ids : int array;
    mutable count : int;
  }

  let create () =
    { keys = Array.make 32 ""; ids = Array.make 32 (-1); count = 0 }

  (* the position holding [name], or the empty one ending its probe
     sequence; [mask] is the table size - 1 *)
  let rec probe keys ids mask name h =
    let id = Array.unsafe_get ids h in
    if id < 0 || String.equal (Array.unsafe_get keys h) name then h
    else probe keys ids mask name ((h + 1) land mask)

  let slot keys ids name =
    let mask = Array.length ids - 1 in
    probe keys ids mask name (hash_name name land mask)

  let find t name = t.ids.(slot t.keys t.ids name)

  (* Map [name] to [id] and answer true, or answer false and leave the
     index as it is when [name] is present and [replace] is false. *)
  let add ~replace t name id =
    let h = slot t.keys t.ids name in
    let fresh = t.ids.(h) < 0 in
    if fresh || replace then begin
      if fresh then t.count <- t.count + 1;
      t.keys.(h) <- name;
      t.ids.(h) <- id;
      if 2 * t.count > Array.length t.ids then begin
        let size = 2 * Array.length t.ids in
        let keys = Array.make size "" and ids = Array.make size (-1) in
        for h = 0 to Array.length t.ids - 1 do
          let id = t.ids.(h) in
          if id >= 0 then begin
            let h' = slot keys ids t.keys.(h) in
            keys.(h') <- t.keys.(h);
            ids.(h') <- id
          end
        done;
        t.keys <- keys;
        t.ids <- ids
      end
    end;
    fresh || replace
end

(* Elements and the id -> name tables are growable arrays filled in
   insertion order; the name -> id lookups are {!Index} tables. *)
type t = {
  mutable n_nodes : int;
  mutable node_label : string option array; (* node id -> name *)
  mutable elems : element array;
  mutable elem_label : string array; (* element id -> name *)
  mutable n_elems : int;
  node_names : Index.t;
  elem_names : Index.t;
}

let create () =
  {
    n_nodes = 1;
    node_label = Array.make 16 None;
    elems = [||];
    elem_label = [||];
    n_elems = 0;
    node_names = Index.create ();
    elem_names = Index.create ();
  }

(* [a] with room for index [n], doubled when full *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let fresh_node ?name t =
  let n = t.n_nodes in
  t.node_label <- room t.node_label n None;
  (match name with
  | None -> ()
  | Some nm ->
      if not (Index.add ~replace:false t.node_names nm n) then
        invalid_arg ("Netlist.fresh_node: duplicate node name " ^ nm);
      t.node_label.(n) <- name);
  t.n_nodes <- n + 1;
  n

let node_count t = t.n_nodes

let find_node t name =
  match Index.find t.node_names name with -1 -> None | n -> Some n

let check_node t n ctx =
  if n < 0 || n >= t.n_nodes then
    invalid_arg (Printf.sprintf "Netlist.%s: node %d out of range" ctx n)

let add_element ?name t e =
  let id = t.n_elems in
  (* an automatic name replaces a user's element of the same name in
     the index; a user's name must be new *)
  let nm, replace =
    match name with
    | Some nm -> (nm, false)
    | None -> ("_e" ^ string_of_int id, true)
  in
  if not (Index.add ~replace t.elem_names nm id) then
    invalid_arg ("Netlist: duplicate element name " ^ nm);
  t.elems <- room t.elems id e;
  t.elems.(id) <- e;
  t.elem_label <- room t.elem_label id "";
  t.elem_label.(id) <- nm;
  t.n_elems <- id + 1

let add_resistor ?name t a b ohms =
  check_node t a "add_resistor";
  check_node t b "add_resistor";
  if ohms <= 0.0 then invalid_arg "Netlist.add_resistor: ohms <= 0";
  add_element ?name t (Resistor { a; b; ohms })

let add_capacitor ?name t a b farads =
  check_node t a "add_capacitor";
  check_node t b "add_capacitor";
  if farads <= 0.0 then invalid_arg "Netlist.add_capacitor: farads <= 0";
  add_element ?name t (Capacitor { a; b; farads })

let add_rl_branch ?name t a b ~ohms ~henries =
  check_node t a "add_rl_branch";
  check_node t b "add_rl_branch";
  if ohms <= 0.0 then invalid_arg "Netlist.add_rl_branch: ohms <= 0";
  if henries < 0.0 then invalid_arg "Netlist.add_rl_branch: henries < 0";
  add_element ?name t (Rl_branch { a; b; ohms; henries })

let add_inductor ?name t a b henries =
  if henries <= 0.0 then invalid_arg "Netlist.add_inductor: henries <= 0";
  add_rl_branch ?name t a b ~ohms:1e-6 ~henries

let add_coupled_rl ?name t ~a1 ~b1 ~a2 ~b2 ~ohms ~henries ~mutual =
  List.iter (fun n -> check_node t n "add_coupled_rl") [ a1; b1; a2; b2 ];
  if ohms <= 0.0 then invalid_arg "Netlist.add_coupled_rl: ohms <= 0";
  if henries <= 0.0 then invalid_arg "Netlist.add_coupled_rl: henries <= 0";
  if mutual < 0.0 || mutual >= henries then
    invalid_arg "Netlist.add_coupled_rl: need 0 <= mutual < henries";
  add_element ?name t (Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual })

let add_vsource ?name t a b stim =
  check_node t a "add_vsource";
  check_node t b "add_vsource";
  Stimulus.validate stim;
  add_element ?name t (Vsource { a; b; stim })

let add_isource ?name t a b stim =
  check_node t a "add_isource";
  check_node t b "add_isource";
  Stimulus.validate stim;
  add_element ?name t (Isource { a; b; stim })

let add_inverter ?name t ~input ~output dev =
  check_node t input "add_inverter";
  check_node t output "add_inverter";
  if input = output then invalid_arg "Netlist.add_inverter: input = output";
  add_element ?name t (Inverter { input; output; dev })

let elements t = Array.sub t.elems 0 t.n_elems

let node_name t n =
  if n > 0 && n < t.n_nodes then t.node_label.(n) else None

(* ---------------- structural identity ---------------- *)

(* A deck's structure is its element kinds and connectivity; values
   (ohms, farads, stimulus waveforms, device parameters) are excluded.
   The one value that IS structural: an RL branch with henries = 0
   stamps as a plain resistor (no branch-current unknown), so it gets
   the resistor's kind tag. *)
let kind_tag = function
  | Resistor _ -> 'R'
  | Rl_branch { henries; _ } -> if henries = 0.0 then 'R' else 'B'
  | Capacitor _ -> 'C'
  | Coupled_rl _ -> 'P'
  | Vsource _ -> 'V'
  | Isource _ -> 'I'
  | Inverter _ -> 'X'

(* The element's nodes in signature order, through [f]. *)
let iter_nodes f = function
  | Resistor { a; b; _ }
  | Capacitor { a; b; _ }
  | Rl_branch { a; b; _ }
  | Vsource { a; b; _ }
  | Isource { a; b; _ } ->
      f a;
      f b
  | Coupled_rl { a1; b1; a2; b2; _ } ->
      f a1;
      f b1;
      f a2;
      f b2
  | Inverter { input; output; _ } ->
      f input;
      f output

let structural_hash t =
  (* nodes are labelled by *name* where available, so two decks listing
     the same cards in a different order — which assigns different
     node ids — still describe each element identically; the sum of
     per-card hashes then erases the card order itself while keeping
     how often each card occurs *)
  let label =
    Array.init t.n_nodes (fun n ->
        if n = ground then hash_name "0"
        else
          match t.node_label.(n) with
          | Some nm -> hash_name nm
          | None -> mix (n lxor 0x5bd1e995))
  in
  let sum = ref 0 in
  for id = 0 to t.n_elems - 1 do
    let e = t.elems.(id) in
    let h = ref (mix (Char.code (kind_tag e))) in
    iter_nodes (fun n -> h := mix (!h + label.(n))) e;
    sum := !sum + !h
  done;
  let x = mix !sum in
  String.init 16 (fun i -> "0123456789abcdef".[(x lsr (60 - (4 * i))) land 15])

(* decimal digits of [n >= 0], appended without an intermediate string *)
let rec add_int b n =
  if n >= 10 then add_int b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let structural_signature t =
  let b = Buffer.create (16 + (12 * t.n_elems)) in
  Buffer.add_char b 'n';
  add_int b t.n_nodes;
  for id = 0 to t.n_elems - 1 do
    let e = t.elems.(id) in
    Buffer.add_char b ';';
    Buffer.add_char b (kind_tag e);
    let sep = ref '(' in
    iter_nodes
      (fun n ->
        Buffer.add_char b !sep;
        sep := ',';
        add_int b n)
      e;
    Buffer.add_char b ')'
  done;
  Buffer.contents b

(* The hash/signature PAIRING used by every layer that reuses compiled
   artifacts across decks (the serving layer's deck cache, the what-if
   workspace).  Keeping the pair in one place means a cache and a
   workspace can never disagree about what "same deck" means: the
   coarse order-independent hash finds the family, the exact signature
   rejects aliases within it. *)
type structural_key = { hash : string; signature : string }

let structural_key t =
  { hash = structural_hash t; signature = structural_signature t }

let key_reusable ~cached ~probe =
  String.equal cached.hash probe.hash
  && String.equal cached.signature probe.signature

let find_element t name =
  match Index.find t.elem_names name with -1 -> None | id -> Some id

let element_name t id =
  if id >= 0 && id < t.n_elems then t.elem_label.(id)
  else invalid_arg (Printf.sprintf "Netlist.element_name: no element %d" id)

(* Every non-ground node must reach ground through elements that carry
   DC current (everything except capacitors); otherwise MNA is
   singular. *)
let validate t =
  let elems = elements t in
  let adj = Array.make t.n_nodes [] in
  let connect a b =
    adj.(a) <- b :: adj.(a);
    adj.(b) <- a :: adj.(b)
  in
  Array.iter
    (fun e ->
      match e with
      | Resistor { a; b; _ } | Rl_branch { a; b; _ } | Vsource { a; b; _ } ->
          connect a b
      | Coupled_rl { a1; b1; a2; b2; _ } ->
          connect a1 b1;
          connect a2 b2
      | Inverter { input; output; _ } ->
          (* the output stage ties the output to the rails *)
          connect output ground;
          (* the gate is purely capacitive: no DC path via input *)
          ignore input
      | Capacitor _ | Isource _ -> ())
    elems;
  let visited = Array.make t.n_nodes false in
  let rec dfs n =
    if not visited.(n) then begin
      visited.(n) <- true;
      List.iter dfs adj.(n)
    end
  in
  dfs ground;
  for n = 1 to t.n_nodes - 1 do
    if not visited.(n) then
      invalid_arg
        (Printf.sprintf "Netlist.validate: node %s has no DC path to ground"
           (match t.node_label.(n) with
           | Some nm -> nm
           | None -> string_of_int n))
  done
