open Rlc_numerics

let vi node = node - 1

module Coo = struct
  (* Growable triplet arrays plus a slot index so duplicate stamps
     accumulate in place — the same float-addition order a dense
     Matrix.add_to sequence would produce, which is what makes the
     dense materialisation entry-identical to the historical dense
     stamping.  The index is an open-addressed int table with linear
     probing: [table.(2h)] holds the key i * csize + j (or -1 when
     empty) and [table.(2h + 1)] its slot; it is kept at most half
     full. *)
  type t = {
    csize : int;
    mutable table : int array;
    mutable mask : int; (* entries - 1; entries a power of two *)
    mutable rows : int array;
    mutable cols : int array;
    mutable vals : float array;
    mutable n : int;
  }

  let create ~size =
    if size <= 0 then invalid_arg "Assembly.Coo.create: size <= 0";
    {
      csize = size;
      table = Array.make 128 (-1);
      mask = 63;
      rows = Array.make 16 0;
      cols = Array.make 16 0;
      vals = Array.make 16 0.0;
      n = 0;
    }

  let size t = t.csize
  let nnz t = t.n

  let grow t =
    let cap = 2 * Array.length t.rows in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.rows <- extend t.rows 0;
    t.cols <- extend t.cols 0;
    t.vals <- extend t.vals 0.0

  let[@inline] home key mask =
    let h = key * 0x1f3d5b79a4c6e8f1 in
    (h lxor (h lsr 32)) land mask

  (* the table position holding [key], or the empty one ending its
     probe sequence *)
  let rec probe table mask key h =
    let k = Array.unsafe_get table (2 * h) in
    if k = key || k < 0 then h else probe table mask key ((h + 1) land mask)

  let find table mask key = probe table mask key (home key mask)

  let rehash t =
    let mask = (2 * (t.mask + 1)) - 1 in
    let table = Array.make (2 * (mask + 1)) (-1) in
    for slot = 0 to t.n - 1 do
      let key = (t.rows.(slot) * t.csize) + t.cols.(slot) in
      let h = find table mask key in
      table.(2 * h) <- key;
      table.((2 * h) + 1) <- slot
    done;
    t.table <- table;
    t.mask <- mask

  let stamp_at t i j v =
    if i < 0 || i >= t.csize || j < 0 || j >= t.csize then
      invalid_arg
        (Printf.sprintf "Assembly.Coo: index (%d,%d) out of %dx%d" i j t.csize
           t.csize);
    let key = (i * t.csize) + j in
    let h = find t.table t.mask key in
    if t.table.(2 * h) = key then begin
      let slot = t.table.((2 * h) + 1) in
      t.vals.(slot) <- t.vals.(slot) +. v
    end
    else begin
      if t.n = Array.length t.rows then grow t;
      let slot = t.n in
      t.rows.(slot) <- i;
      t.cols.(slot) <- j;
      t.vals.(slot) <- v;
      t.n <- slot + 1;
      t.table.(2 * h) <- key;
      t.table.((2 * h) + 1) <- slot;
      if 2 * t.n > t.mask then rehash t
    end

  (* -0.0 is the additive identity of IEEE addition (-0.0 + v = v for
     every v, +0.0 included), so restamping the same sequence after a
     reset leaves every slot with the bits a fresh accumulator would
     hold, in the same slot order *)
  let reset t = Array.fill t.vals 0 t.n (-0.0)

  (* THE conductance-pattern stamp: every two-terminal conductance-like
     element in the repository (resistors, capacitor companions,
     inductor companions, inverter output stages) goes through here. *)
  let stamp_g t a b v =
    if a <> Netlist.ground then stamp_at t (vi a) (vi a) v;
    if b <> Netlist.ground then stamp_at t (vi b) (vi b) v;
    if a <> Netlist.ground && b <> Netlist.ground then begin
      stamp_at t (vi a) (vi b) (-.v);
      stamp_at t (vi b) (vi a) (-.v)
    end

  let stamp_cross t ~a ~b ~ma ~mb v =
    if a <> Netlist.ground then begin
      if ma <> Netlist.ground then stamp_at t (vi a) (vi ma) v;
      if mb <> Netlist.ground then stamp_at t (vi a) (vi mb) (-.v)
    end;
    if b <> Netlist.ground then begin
      if ma <> Netlist.ground then stamp_at t (vi b) (vi ma) (-.v);
      if mb <> Netlist.ground then stamp_at t (vi b) (vi mb) v
    end

  let iter t f =
    for k = 0 to t.n - 1 do
      f t.rows.(k) t.cols.(k) t.vals.(k)
    done

  let mul_vec t y =
    let r = Array.make t.csize 0.0 in
    for k = 0 to t.n - 1 do
      let i = t.rows.(k) in
      r.(i) <- r.(i) +. (t.vals.(k) *. y.(t.cols.(k)))
    done;
    r

  (* the deduplicated, sorted union of the accumulators' off-diagonal
     patterns, both directions *)
  let union size coos =
    let adj = Array.make size [] in
    List.iter
      (fun t ->
        for k = 0 to t.n - 1 do
          let i = t.rows.(k) and j = t.cols.(k) in
          if i <> j then begin
            adj.(i) <- j :: adj.(i);
            adj.(j) <- i :: adj.(j)
          end
        done)
      coos;
    Array.map (List.sort_uniq Int.compare) adj

  let adjacency t = union t.csize [ t ]

  let to_dense t =
    let m = Matrix.create t.csize t.csize in
    iter t (fun i j v -> Matrix.add_to m i j v);
    m
end

type source_kind = Voltage | Current

type input = {
  name : string;
  kind : source_kind;
  stim : Stimulus.t;
}

type t = {
  size : int;
  n_nodes : int;
  n_currents : int;
  g : Coo.t;
  c : Coo.t;
  b_rows : int array;
  b_cols : int array;
  b_vals : float array;
  inputs : input array;
  current_rows : int array array;
  plan : Solver.plan;
}

(* First pass: count the extra unknowns and the source columns so the
   IR can be sized before stamping. *)
let count_extras elems =
  let currents = ref 0 and vsrcs = ref 0 and srcs = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Netlist.Rl_branch { henries; _ } ->
          if henries > 0.0 then incr currents
      | Netlist.Coupled_rl _ -> currents := !currents + 2
      | Netlist.Vsource _ ->
          incr vsrcs;
          incr srcs
      | Netlist.Isource _ -> incr srcs
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inverter _ -> ())
    elems;
  (!currents, !vsrcs, !srcs)

let of_netlist ?plan:plan_hint ?(validate = true) netlist =
  if validate then Netlist.validate netlist;
  let elems = Netlist.elements netlist in
  let n_nodes = Netlist.node_count netlist in
  let n_currents, n_vsrcs, _n_srcs = count_extras elems in
  let size = n_nodes - 1 + n_currents + n_vsrcs in
  if size = 0 then invalid_arg "Assembly.of_netlist: empty circuit";
  let g = Coo.create ~size in
  let c = Coo.create ~size in
  let b = ref [] in
  let inputs = ref [] in
  (* Branch row for a current unknown at [row]: KCL incidence in the
     node rows plus the element equation written as
     -v_a + v_b + R i + s L i = 0.  The sign convention matters: with
     the branch block skew-coupled to the node block and R, L positive
     on the branch diagonal, G + G^T and C are positive semidefinite —
     the structure PRIMA's congruence projection needs to keep reduced
     models stable. *)
  let stamp_branch ~row na nb r_ohms =
    if na <> Netlist.ground then begin
      Coo.stamp_at g (vi na) row 1.0;
      Coo.stamp_at g row (vi na) (-1.0)
    end;
    if nb <> Netlist.ground then begin
      Coo.stamp_at g (vi nb) row (-1.0);
      Coo.stamp_at g row (vi nb) 1.0
    end;
    Coo.stamp_at g row row r_ohms
  in
  let next_current = ref (n_nodes - 1) in
  let next_vrow = ref (n_nodes - 1 + n_currents) in
  let next_col = ref 0 in
  let current_rows = Array.make (Array.length elems) [||] in
  Array.iteri
    (fun id e ->
      match e with
      | Netlist.Resistor { a; b = nb; ohms } -> Coo.stamp_g g a nb (1.0 /. ohms)
      | Netlist.Capacitor { a; b = nb; farads } -> Coo.stamp_g c a nb farads
      | Netlist.Rl_branch { a; b = nb; ohms; henries } ->
          if henries = 0.0 then Coo.stamp_g g a nb (1.0 /. ohms)
          else begin
            let row = !next_current in
            incr next_current;
            current_rows.(id) <- [| row |];
            stamp_branch ~row a nb ohms;
            Coo.stamp_at c row row henries
          end
      | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
          let row1 = !next_current in
          let row2 = row1 + 1 in
          next_current := !next_current + 2;
          current_rows.(id) <- [| row1; row2 |];
          stamp_branch ~row:row1 a1 b1 ohms;
          stamp_branch ~row:row2 a2 b2 ohms;
          Coo.stamp_at c row1 row1 henries;
          Coo.stamp_at c row2 row2 henries;
          Coo.stamp_at c row1 row2 mutual;
          Coo.stamp_at c row2 row1 mutual
      | Netlist.Vsource { a; b = nb; stim } ->
          (* same skew convention as the inductor branches:
             -v_a + v_b = -u *)
          let row = !next_vrow in
          incr next_vrow;
          current_rows.(id) <- [| row |];
          if a <> Netlist.ground then begin
            Coo.stamp_at g (vi a) row 1.0;
            Coo.stamp_at g row (vi a) (-1.0)
          end;
          if nb <> Netlist.ground then begin
            Coo.stamp_at g (vi nb) row (-1.0);
            Coo.stamp_at g row (vi nb) 1.0
          end;
          let col = !next_col in
          incr next_col;
          b := (row, col, -1.0) :: !b;
          inputs :=
            { name = Netlist.element_name netlist id; kind = Voltage; stim }
            :: !inputs
      | Netlist.Isource { a; b = nb; stim } ->
          (* current a -> b through the source: drawn from a, injected
             into b (matches the transient engine's RHS signs) *)
          let col = !next_col in
          incr next_col;
          if a <> Netlist.ground then b := (vi a, col, -1.0) :: !b;
          if nb <> Netlist.ground then b := (vi nb, col, 1.0) :: !b;
          inputs :=
            { name = Netlist.element_name netlist id; kind = Current; stim }
            :: !inputs
      | Netlist.Inverter { input; output; dev } ->
          Coo.stamp_g c input Netlist.ground dev.Devices.c_in;
          Coo.stamp_g c output Netlist.ground dev.Devices.c_out;
          Coo.stamp_g g output Netlist.ground (1.0 /. dev.Devices.r_on))
    elems;
  let b = Array.of_list (List.rev !b) in
  {
    size;
    n_nodes;
    n_currents;
    g;
    c;
    b_rows = Array.map (fun (r, _, _) -> r) b;
    b_cols = Array.map (fun (_, cl, _) -> cl) b;
    b_vals = Array.map (fun (_, _, v) -> v) b;
    inputs = Array.of_list (List.rev !inputs);
    current_rows;
    plan =
      (match plan_hint with
      | Some p when p.Solver.n = size -> p
      | Some _ ->
          invalid_arg "Assembly.of_netlist: plan hint sized for another deck"
      | None -> Solver.plan (Coo.union size [ g; c ]));
  }

let adjacency t = Coo.union t.size [ t.g; t.c ]

let dense_g t = Coo.to_dense t.g
let dense_c t = Coo.to_dense t.c

let iter_b t f =
  Array.iteri (fun k row -> f row t.b_cols.(k) t.b_vals.(k)) t.b_rows

let b_column t input =
  if input < 0 || input >= Array.length t.inputs then
    invalid_arg "Assembly.b_column: input index out of range";
  let col = Array.make t.size 0.0 in
  iter_b t (fun r cl v -> if cl = input then col.(r) <- col.(r) +. v);
  col

let probe ~ctx t node =
  if node = Netlist.ground then invalid_arg (ctx ^ ": ground has no voltage")
  else if node < 0 || node >= t.n_nodes then
    invalid_arg (ctx ^ ": node out of range")
  else if Array.length t.inputs = 0 then
    invalid_arg (ctx ^ ": deck has no independent source")
  else vi node

let factor_g ?symbolic t =
  Solver.factor ?symbolic t.plan ~fill:(Coo.iter t.g)

let solve_g t f b = Solver.solve t.plan f b

let plan_for t backend =
  match backend with
  | Solver.Auto -> t.plan
  | Solver.Dense | Solver.Banded | Solver.Sparse ->
      Solver.plan ~backend (adjacency t)

let cfill t s add =
  Coo.iter t.g (fun i j v -> add i j (Cx.of_float v));
  Coo.iter t.c (fun i j v -> add i j (Cx.( *: ) s (Cx.of_float v)))

let solve_complex ?(backend = Solver.Auto) t ~s ~rhs =
  let plan = plan_for t backend in
  let f = Solver.cfactor plan ~fill:(cfill t s) in
  Solver.csolve plan f rhs

(* The per-sweep complex engine: one structure analysis (and, on the
   sparse backend, one symbolic factorisation at a reference
   frequency) shared read-only by every subsequent point.  Building
   the engine *before* a Pool fan-out is what keeps sweeps
   deterministic at any domain count: the pivot sequence is fixed at
   [s_ref] instead of racing to whichever frequency factors first. *)
type cengine = {
  ce_asm : t;
  ce_plan : Solver.plan;
  ce_sym : Solver.symbolic option;
}

let cengine ?(backend = Solver.Auto) ?symbolic t ~s_ref =
  let plan = plan_for t backend in
  let sym =
    match plan.Solver.choice with
    | Solver.Sparse_lu -> begin
        (* a caller-provided symbolic (the serving layer's compiled-deck
           cache) skips the reference-frequency analysis entirely *)
        match symbolic with
        | Some _ -> symbolic
        | None ->
            Solver.csymbolic_of (Solver.cfactor plan ~fill:(cfill t s_ref))
      end
    | Solver.Dense_lu | Solver.Banded_lu -> None
  in
  { ce_asm = t; ce_plan = plan; ce_sym = sym }

let cengine_plan e = e.ce_plan
let cengine_symbolic e = e.ce_sym
let cengine_scratch e = Solver.cscratch e.ce_plan

let cengine_solve_into e cs ~s ~rhs ~x =
  let f =
    Solver.cfactor ?symbolic:e.ce_sym e.ce_plan ~fill:(cfill e.ce_asm s)
  in
  Solver.csolve_into e.ce_plan f cs ~b:rhs ~x

let cengine_solve e ~s ~rhs =
  let x = Array.make e.ce_plan.Solver.n Cx.zero in
  cengine_solve_into e (cengine_scratch e) ~s ~rhs ~x;
  x
