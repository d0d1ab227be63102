(* Cross-cutting property-based tests with independent oracles:
   random trees checked against a from-scratch Elmore computation,
   random stimuli against their envelopes, random stages against
   physical invariants. *)

open Rlc_core

let node100 = Rlc_tech.Presets.node_100nm
let node250 = Rlc_tech.Presets.node_250nm

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------------- random tree generator ---------------- *)

let wire_gen =
  QCheck2.Gen.(
    let* r = float_range 10.0 500.0 in
    let* l = float_range 0.0 20e-9 in
    let* c = float_range 1e-14 5e-12 in
    return (Rlc_tree.Tree.wire ~r ~l ~c))

let tree_gen =
  QCheck2.Gen.(
    let sink_counter = ref 0 in
    let rec gen depth =
      if depth = 0 then
        let* cap = float_range 1e-15 1e-12 in
        incr sink_counter;
        return (Rlc_tree.Tree.sink ~name:(Printf.sprintf "s%d" !sink_counter) ~cap)
      else
        let* n_branches = int_range 1 3 in
        let* branches =
          flatten_l
            (List.init n_branches (fun _ ->
                 let* w = wire_gen in
                 let* sub = gen (depth - 1) in
                 return (w, sub)))
        in
        return (Rlc_tree.Tree.node branches)
    in
    let* depth = int_range 1 4 in
    sink_counter := 0;
    gen depth)

(* independent Elmore oracle: delay(sink) = sum over all caps k of
   R(path shared with sink) * C_k, with wire caps split half/half *)
let elmore_oracle ~driver_rs tree sink_name =
  (* enumerate "cap sites": (root-to-site path as (edge id, wire) list,
     cap value); edge ids are assigned during the walk *)
  let sites = ref [] in
  let sink_path = ref None in
  let next_edge = ref 0 in
  let rec walk path = function
    | Rlc_tree.Tree.Sink { name; cap } ->
        sites := (path, cap) :: !sites;
        if String.equal name sink_name then sink_path := Some path
    | Rlc_tree.Tree.Node { cap; branches; _ } ->
        sites := (path, cap) :: !sites;
        List.iter
          (fun (w, sub) ->
            let id = !next_edge in
            incr next_edge;
            let deeper = path @ [ (id, w) ] in
            (* half the wire cap at each end *)
            sites := (path, w.Rlc_tree.Tree.c /. 2.0) :: !sites;
            sites := (deeper, w.Rlc_tree.Tree.c /. 2.0) :: !sites;
            walk deeper sub)
          branches
  in
  walk [] tree;
  let sink_path =
    match !sink_path with Some p -> p | None -> failwith "sink not found"
  in
  let shared_resistance site_path =
    (* driver resistance always shared, plus resistances of the common
       path prefix *)
    let rec common a b acc =
      match (a, b) with
      | (ia, wa) :: ra, (ib, _) :: rb when ia = ib ->
          common ra rb (acc +. wa.Rlc_tree.Tree.r)
      | _ -> acc
    in
    driver_rs +. common site_path sink_path 0.0
  in
  List.fold_left
    (fun acc (path, cap) -> acc +. (shared_resistance path *. cap))
    0.0 !sites

let prop_tree_elmore_matches_oracle =
  QCheck2.Test.make ~name:"tree b1 equals independent Elmore oracle"
    ~count:100 tree_gen (fun tree ->
      let driver_rs = 42.0 in
      let computed = Rlc_tree.Moments.elmore ~driver_rs tree in
      List.for_all
        (fun (name, b1) ->
          let oracle = elmore_oracle ~driver_rs tree name in
          Float.abs (b1 -. oracle) <= 1e-9 *. (1.0 +. Float.abs oracle))
        computed)

let prop_tree_segmentation_preserves_totals =
  QCheck2.Test.make ~name:"segment_edges preserves cap and wire totals"
    ~count:100 tree_gen (fun tree ->
      let seg =
        Rlc_tree.Tree.segment_edges
          ~max_segment:(Rlc_tree.Tree.wire ~r:50.0 ~l:5e-9 ~c:1e-12)
          tree
      in
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a) in
      close (Rlc_tree.Tree.total_cap tree) (Rlc_tree.Tree.total_cap seg)
      &&
      match (Rlc_tree.Tree.total_wire tree, Rlc_tree.Tree.total_wire seg) with
      | Some a, Some b ->
          close a.Rlc_tree.Tree.r b.Rlc_tree.Tree.r
          && close a.Rlc_tree.Tree.l b.Rlc_tree.Tree.l
          && close a.Rlc_tree.Tree.c b.Rlc_tree.Tree.c
      | None, None -> true
      | _ -> false)

let prop_tree_segmentation_preserves_elmore =
  QCheck2.Test.make
    ~name:"segment_edges preserves Elmore delays (half-half split)"
    ~count:60 tree_gen (fun tree ->
      let seg =
        Rlc_tree.Tree.segment_edges
          ~max_segment:(Rlc_tree.Tree.wire ~r:100.0 ~l:1e-8 ~c:2e-12)
          tree
      in
      let d t = Rlc_tree.Moments.elmore ~driver_rs:30.0 t in
      List.for_all2
        (fun (n1, b1) (n2, b2) ->
          String.equal n1 n2
          (* segmentation refines the distributed approximation, so
             Elmore changes slightly; it must stay within a few % *)
          && Float.abs (b1 -. b2) <= 0.05 *. (Float.abs b1 +. 1e-15))
        (d tree) (d seg))

(* ---------------- stimulus envelopes ---------------- *)

let prop_pulse_within_envelope =
  QCheck2.Test.make ~name:"pulse stays within [v0, v1]" ~count:200
    QCheck2.Gen.(
      let* v0 = float_range (-2.0) 2.0 in
      let* v1 = float_range (-2.0) 2.0 in
      let* period = float_range 1e-9 1e-6 in
      let* frac_r = float_range 0.05 0.2 in
      let* frac_h = float_range 0.1 0.5 in
      let* t = float_range 0.0 5e-6 in
      return (v0, v1, period, frac_r, frac_h, t))
    (fun (v0, v1, period, frac_r, frac_h, t) ->
      let stim =
        Rlc_circuit.Stimulus.Pulse
          {
            v0;
            v1;
            t_delay = period /. 10.0;
            t_rise = frac_r *. period;
            t_high = frac_h *. period;
            t_fall = frac_r *. period;
            period;
          }
      in
      Rlc_circuit.Stimulus.validate stim;
      let v = Rlc_circuit.Stimulus.eval stim t in
      let lo = Float.min v0 v1 and hi = Float.max v0 v1 in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

let prop_pwl_within_envelope =
  QCheck2.Test.make ~name:"pwl stays within its corner values" ~count:200
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* vs = list_size (return n) (float_range (-3.0) 3.0) in
      let* t = float_range (-1.0) 10.0 in
      return (vs, t))
    (fun (vs, t) ->
      let corners = List.mapi (fun i v -> (float_of_int i, v)) vs in
      let stim = Rlc_circuit.Stimulus.Pwl corners in
      let v = Rlc_circuit.Stimulus.eval stim t in
      let lo = List.fold_left Float.min infinity vs in
      let hi = List.fold_left Float.max neg_infinity vs in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

(* ---------------- stage physics invariants ---------------- *)

let stage_gen =
  QCheck2.Gen.(
    let* l = float_range 0.0 5e-6 in
    let* h = float_range 2e-3 3e-2 in
    let* k = float_range 30.0 1500.0 in
    let* pick = bool in
    return (Stage.of_node (if pick then node100 else node250) ~l ~h ~k))

let prop_lcrit_separates_damping =
  QCheck2.Test.make ~name:"l_crit separates over/underdamped" ~count:150
    stage_gen (fun stage ->
      let l_crit = Critical_inductance.of_stage stage in
      if l_crit <= 0.0 then true (* stage underdamped for every l >= 0 *)
      else begin
        let under =
          Pade.classify (Pade.coeffs (Stage.with_l stage (1.5 *. l_crit)))
        in
        let over =
          Pade.classify (Pade.coeffs (Stage.with_l stage (0.5 *. l_crit)))
        in
        under = Pade.Underdamped && over = Pade.Overdamped
      end)

let prop_power_monotone =
  QCheck2.Test.make ~name:"power decreasing in h, increasing in k" ~count:150
    QCheck2.Gen.(
      let* h = float_range 2e-3 3e-2 in
      let* k = float_range 30.0 1500.0 in
      return (h, k))
    (fun (h, k) ->
      Power.per_length node100 ~h:(h *. 1.2) ~k < Power.per_length node100 ~h ~k
      && Power.per_length node100 ~h ~k:(k *. 1.2)
         > Power.per_length node100 ~h ~k)

let prop_coupled_mode_capacitance =
  QCheck2.Test.make ~name:"mode capacitances: even + odd = 2(cg + cc)"
    ~count:150
    QCheck2.Gen.(
      let* cg = float_range 1e-12 3e-10 in
      let* cc = float_range 0.0 2e-10 in
      let* ls = float_range 1e-8 5e-6 in
      let* lm_frac = float_range 0.0 0.9 in
      return (cg, cc, ls, lm_frac))
    (fun (cg, cc, ls, lm_frac) ->
      let p =
        Coupled.make ~r:4400.0 ~l_self:ls ~l_mutual:(lm_frac *. ls)
          ~c_ground:cg ~c_coupling:cc
      in
      let even = Coupled.mode_line p Coupled.Even in
      let odd = Coupled.mode_line p Coupled.Odd in
      let total = even.Line.c +. odd.Line.c in
      Float.abs (total -. (2.0 *. (cg +. cc))) <= 1e-12 *. total
      (* and mode inductances average to the self inductance *)
      && Float.abs (((even.Line.l +. odd.Line.l) /. 2.0) -. ls)
         <= 1e-12 *. ls +. 1e-30)

let prop_frequency_gd_positive_at_low_f =
  QCheck2.Test.make ~name:"group delay at low frequency is ~ b1" ~count:60
    stage_gen (fun stage ->
      let b1 = (Pade.coeffs stage).Pade.b1 in
      let gd = Frequency.group_delay stage 1e5 in
      Float.abs (gd -. b1) <= 0.01 *. b1)

let prop_eye_prbs_balanced =
  QCheck2.Test.make ~name:"prbs one period is balanced for any seed"
    ~count:127
    QCheck2.Gen.(int_range 1 127)
    (fun seed ->
      let bits = Rlc_ringosc.Eye.prbs ~seed 127 in
      List.length (List.filter Fun.id bits) = 64)

let prop_insertion_bound =
  QCheck2.Test.make ~name:"integer insertion never beats the continuous bound"
    ~count:40
    QCheck2.Gen.(
      let* len = float_range 3e-3 8e-2 in
      let* l = float_range 0.0 4e-6 in
      return (len, l))
    (fun (len, l) ->
      let p = Insertion.plan node100 ~l ~length:len in
      p.Insertion.total_delay >= p.Insertion.continuous_bound *. (1.0 -. 1e-9))

(* ---------------- assembly stamp IR ---------------- *)

(* Random-netlist recipe: a connected chain of R/RL branches (every
   node reaches ground), grounded caps, an optional coupled-RL pair
   and an optional current source — pure data so QCheck can shrink. *)
type net_recipe = {
  chain : (int * float * float) list; (* parent index, ohms, henries *)
  caps : (int * float) list; (* chain-node index, farads *)
  vdc : float;
  isrc : (int * float) option; (* chain-node index, amps *)
  coupled : (int * int * float * float * float) option;
      (* node idx pair, ohms, henries, mutual fraction *)
}

let recipe_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* chain =
      flatten_l
        (List.init n (fun i ->
             let* parent = int_range 0 i in
             let* ohms = float_range 1.0 1000.0 in
             let* inductive = bool in
             let* henries =
               if inductive then float_range 1e-9 1e-6 else return 0.0
             in
             return (parent, ohms, henries)))
    in
    let* caps =
      flatten_l
        (List.init n (fun i ->
             let* farads = float_range 1e-15 1e-11 in
             return (i + 1, farads)))
    in
    let* vdc = float_range 0.5 2.0 in
    let* with_isrc = bool in
    let* isrc =
      if with_isrc then
        let* node = int_range 1 n in
        let* amps = float_range 1e-6 1e-3 in
        return (Some (node, amps))
      else return None
    in
    let* with_coupled = bool in
    let* coupled =
      if with_coupled && n >= 3 then
        let* a = int_range 0 n in
        let* b = int_range 0 n in
        let* ohms = float_range 1.0 200.0 in
        let* henries = float_range 1e-9 1e-7 in
        let* mfrac = float_range 0.0 0.8 in
        return (if a = b then None else Some (a, b, ohms, henries, mfrac))
      else return None
    in
    return { chain; caps; vdc; isrc; coupled })

let build_netlist recipe =
  let open Rlc_circuit in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc recipe.vdc);
  let nodes = Array.make (List.length recipe.chain + 1) src in
  List.iteri
    (fun i (parent, ohms, henries) ->
      let n = Netlist.fresh_node nl in
      nodes.(i + 1) <- n;
      if henries = 0.0 then Netlist.add_resistor nl nodes.(parent) n ohms
      else Netlist.add_rl_branch nl nodes.(parent) n ~ohms ~henries)
    recipe.chain;
  List.iter
    (fun (i, farads) ->
      Netlist.add_capacitor nl nodes.(i) Netlist.ground farads)
    recipe.caps;
  (match recipe.isrc with
  | Some (i, amps) ->
      Netlist.add_isource nl nodes.(i) Netlist.ground (Stimulus.Dc amps)
  | None -> ());
  (match recipe.coupled with
  | Some (a, b, ohms, henries, mfrac) ->
      Netlist.add_coupled_rl nl ~a1:nodes.(a) ~b1:Netlist.ground ~a2:nodes.(b)
        ~b2:Netlist.ground ~ohms ~henries ~mutual:(mfrac *. henries)
  | None -> ());
  (nl, nodes)

(* From-scratch dense oracle for the MNA quadruple: stamps the same
   skew-form convention straight into dense matrices, independently of
   Assembly's COO accumulator.  The IR's dense materialisation must
   match entry for entry, bit for bit. *)
let dense_oracle nl =
  let open Rlc_circuit in
  let open Rlc_numerics in
  let elems = Netlist.elements nl in
  let n_nodes = Netlist.node_count nl in
  let currents = ref 0 and vsrcs = ref 0 and srcs = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Netlist.Rl_branch { henries; _ } -> if henries > 0.0 then incr currents
      | Netlist.Coupled_rl _ -> currents := !currents + 2
      | Netlist.Vsource _ ->
          incr vsrcs;
          incr srcs
      | Netlist.Isource _ -> incr srcs
      | _ -> ())
    elems;
  let size = n_nodes - 1 + !currents + !vsrcs in
  let g = Matrix.create size size in
  let c = Matrix.create size size in
  let b = Matrix.create size (Int.max 1 !srcs) in
  let vi n = n - 1 in
  let stamp m a bn v =
    if a <> 0 then Matrix.add_to m (vi a) (vi a) v;
    if bn <> 0 then Matrix.add_to m (vi bn) (vi bn) v;
    if a <> 0 && bn <> 0 then begin
      Matrix.add_to m (vi a) (vi bn) (-.v);
      Matrix.add_to m (vi bn) (vi a) (-.v)
    end
  in
  let branch row a bn r =
    if a <> 0 then begin
      Matrix.add_to g (vi a) row 1.0;
      Matrix.add_to g row (vi a) (-1.0)
    end;
    if bn <> 0 then begin
      Matrix.add_to g (vi bn) row (-1.0);
      Matrix.add_to g row (vi bn) 1.0
    end;
    Matrix.add_to g row row r
  in
  let next_current = ref (n_nodes - 1) in
  let next_vrow = ref (n_nodes - 1 + !currents) in
  let next_col = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Netlist.Resistor { a; b = bn; ohms } -> stamp g a bn (1.0 /. ohms)
      | Netlist.Capacitor { a; b = bn; farads } -> stamp c a bn farads
      | Netlist.Rl_branch { a; b = bn; ohms; henries } ->
          if henries = 0.0 then stamp g a bn (1.0 /. ohms)
          else begin
            let row = !next_current in
            incr next_current;
            branch row a bn ohms;
            Matrix.add_to c row row henries
          end
      | Netlist.Coupled_rl { a1; b1; a2; b2; ohms; henries; mutual } ->
          let r1 = !next_current in
          let r2 = r1 + 1 in
          next_current := !next_current + 2;
          branch r1 a1 b1 ohms;
          branch r2 a2 b2 ohms;
          Matrix.add_to c r1 r1 henries;
          Matrix.add_to c r2 r2 henries;
          Matrix.add_to c r1 r2 mutual;
          Matrix.add_to c r2 r1 mutual
      | Netlist.Vsource { a; b = bn; _ } ->
          let row = !next_vrow in
          incr next_vrow;
          if a <> 0 then begin
            Matrix.add_to g (vi a) row 1.0;
            Matrix.add_to g row (vi a) (-1.0)
          end;
          if bn <> 0 then begin
            Matrix.add_to g (vi bn) row (-1.0);
            Matrix.add_to g row (vi bn) 1.0
          end;
          let col = !next_col in
          incr next_col;
          Matrix.add_to b row col (-1.0)
      | Netlist.Isource { a; b = bn; _ } ->
          let col = !next_col in
          incr next_col;
          if a <> 0 then Matrix.add_to b (vi a) col (-1.0);
          if bn <> 0 then Matrix.add_to b (vi bn) col 1.0
      | Netlist.Inverter { input; output; dev } ->
          stamp c input 0 dev.Rlc_circuit.Devices.c_in;
          stamp c output 0 dev.Rlc_circuit.Devices.c_out;
          stamp g output 0 (1.0 /. dev.Rlc_circuit.Devices.r_on))
    elems;
  (size, g, c, b)

let matrices_bit_identical a b =
  let open Rlc_numerics in
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  &&
  let ok = ref true in
  for i = 0 to Matrix.rows a - 1 do
    for j = 0 to Matrix.cols a - 1 do
      if
        Int64.bits_of_float (Matrix.get a i j)
        <> Int64.bits_of_float (Matrix.get b i j)
      then ok := false
    done
  done;
  !ok

(* B column by column through [Assembly.b_column]; an IR without
   sources must match the oracle's single all-zero column. *)
let b_columns_bit_identical asm b =
  let open Rlc_circuit in
  let open Rlc_numerics in
  let n_in = Array.length asm.Assembly.inputs in
  Matrix.cols b = Int.max 1 n_in
  && List.for_all
       (fun k ->
         let col =
           if k < n_in then Assembly.b_column asm k
           else Array.make asm.Assembly.size 0.0
         in
         Array.length col = Matrix.rows b
         && Array.for_all Fun.id
              (Array.mapi
                 (fun i v ->
                   Int64.bits_of_float v
                   = Int64.bits_of_float (Matrix.get b i k))
                 col))
       (List.init (Matrix.cols b) Fun.id)

let prop_assembly_matches_dense_oracle =
  QCheck2.Test.make
    ~name:"assembly IR materialises bit-identically to a dense oracle"
    ~count:100 recipe_gen (fun recipe ->
      let open Rlc_circuit in
      let nl, _ = build_netlist recipe in
      let asm = Assembly.of_netlist nl in
      let size, g, c, b = dense_oracle nl in
      asm.Assembly.size = size
      && matrices_bit_identical (Assembly.dense_g asm) g
      && matrices_bit_identical (Assembly.dense_c asm) c
      && b_columns_bit_identical asm b)

let prop_ac_backends_agree =
  QCheck2.Test.make
    ~name:"solve_complex: dense, banded and sparse backends agree to 1e-9"
    ~count:60
    QCheck2.Gen.(
      let* recipe = recipe_gen in
      let* freq = float_range 1e5 1e10 in
      return (recipe, freq))
    (fun (recipe, freq) ->
      let open Rlc_circuit in
      let open Rlc_numerics in
      let nl, _ = build_netlist recipe in
      let asm = Assembly.of_netlist nl in
      let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
      let s = Cx.make 0.0 (2.0 *. Float.pi *. freq) in
      let xd = Assembly.solve_complex ~backend:Solver.Dense asm ~s ~rhs in
      let xb = Assembly.solve_complex ~backend:Solver.Banded asm ~s ~rhs in
      let xs = Assembly.solve_complex ~backend:Solver.Sparse asm ~s ~rhs in
      let scale =
        Array.fold_left (fun acc z -> Float.max acc (Cx.norm z)) 1.0 xd
      in
      let agree a b =
        Array.for_all2
          (fun u v -> Cx.norm (Cx.( -: ) u v) <= 1e-9 *. scale)
          a b
      in
      agree xd xb && agree xd xs)

let prop_dc_matches_dense_oracle =
  QCheck2.Test.make
    ~name:"Dc.operating_point matches a dense-LU solve of the oracle"
    ~count:60 recipe_gen (fun recipe ->
      let open Rlc_circuit in
      let open Rlc_numerics in
      let nl, _ = build_netlist recipe in
      let v = Dc.operating_point nl in
      let size, g, _, b = dense_oracle nl in
      let rhs = Array.make size 0.0 in
      let col = ref 0 in
      Array.iter
        (fun e ->
          (match e with
          | Netlist.Vsource { stim; _ } | Netlist.Isource { stim; _ } ->
              let u = Stimulus.eval stim 0.0 in
              for i = 0 to size - 1 do
                rhs.(i) <- rhs.(i) +. (Matrix.get b i !col *. u)
              done;
              incr col
          | _ -> ()))
        (Netlist.elements nl);
      let x = Lu.solve (Lu.decompose g) rhs in
      let scale =
        Array.fold_left (fun acc z -> Float.max acc (Float.abs z)) 1.0 x
      in
      let ok = ref true in
      for node = 1 to Netlist.node_count nl - 1 do
        if Float.abs (v.(node) -. x.(node - 1)) > 1e-12 *. scale then
          ok := false
      done;
      !ok)

let prop_transient_backends_agree =
  QCheck2.Test.make
    ~name:"transient: dense, banded and sparse backends agree to 1e-9"
    ~count:25 recipe_gen (fun recipe ->
      let open Rlc_circuit in
      let nl, nodes = build_netlist recipe in
      let probe = Transient.Node_v nodes.(Array.length nodes - 1) in
      let run backend =
        Transient.simulate
          ~config:{ Transient.Config.default with backend }
          nl ~t_end:1e-9 ~dt:1e-11 ~probes:[ probe ]
      in
      let vd = Transient.final_voltages (run Transient.Dense) in
      let vb = Transient.final_voltages (run Transient.Banded) in
      let vs = Transient.final_voltages (run Transient.Sparse) in
      let agree a b =
        Array.for_all2
          (fun u v -> Float.abs (u -. v) <= 1e-9 *. (1.0 +. Float.abs u))
          a b
      in
      agree vd vb && agree vd vs)

let prop_sparse_matches_dense_oracle =
  QCheck2.Test.make
    ~name:"sparse LU on the stamped G matches a dense-LU oracle to 1e-12"
    ~count:60 recipe_gen (fun recipe ->
      let open Rlc_circuit in
      let open Rlc_numerics in
      let nl, _ = build_netlist recipe in
      let asm = Assembly.of_netlist nl in
      let size, g, _, _ = dense_oracle nl in
      let plan = Solver.plan ~backend:Solver.Sparse (Assembly.adjacency asm) in
      let fact =
        Solver.factor plan ~fill:(fun put -> Assembly.Coo.iter asm.Assembly.g put)
      in
      let rhs = Assembly.b_column asm 0 in
      let x = Solver.solve plan fact rhs in
      let x_ref = Lu.solve (Lu.decompose g) rhs in
      let scale =
        Array.fold_left (fun acc z -> Float.max acc (Float.abs z)) 1.0 x_ref
      in
      size = asm.Assembly.size
      && Array.for_all2
           (fun a b -> Float.abs (a -. b) <= 1e-12 *. scale)
           x x_ref)

(* ---------------- simulator physics ---------------- *)

(* Trapezoidal integration is A-stable but not L-stable: a mode with
   |lambda| dt > 2 rings with alternating sign, and on a stiff ladder (a
   20-ohm, 0.11 pF first section ahead of a slow 8 pF tail, sampled at
   dt = tau/500) that ringing overshoots the source by up to ~1e-5.
   What the engine does guarantee is the discrete maximum principle.
   Each step solves with the M-matrix alpha C/dt + G, so backward Euler
   stays within the source bounds at any dt.  Trapezoidal does too once
   its explicit half 2C/dt - G is nonnegative, i.e. dt <= 2 c_i / G_ii
   at every node, which dt < 2/|lambda_max| implies. *)
let prop_rc_ladder_passivity =
  QCheck2.Test.make
    ~name:"rc ladder: node voltages stay within the source bounds" ~count:40
    ~print:(fun (rs, cs) ->
      let fs xs = String.concat "; " (List.map (Printf.sprintf "%.17g") xs) in
      Printf.sprintf "r = [%s] ohm, c = [%s] F" (fs rs) (fs cs))
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* rs = list_size (return n) (float_range 10.0 1000.0) in
      let* cs = list_size (return n) (float_range 1e-13 1e-11) in
      return (rs, cs))
    (fun (rs, cs) ->
      let open Rlc_circuit in
      let tau = List.fold_left2 (fun a r c -> a +. (r *. c)) 0.0 rs cs in
      let bounded integration dt =
        let nl = Netlist.create () in
        let src = Netlist.fresh_node nl in
        Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
        let probes = ref [] in
        let last =
          List.fold_left2
            (fun prev r c ->
              let next = Netlist.fresh_node nl in
              Netlist.add_resistor nl prev next r;
              Netlist.add_capacitor nl next Netlist.ground c;
              probes := Transient.Node_v next :: !probes;
              next)
            src rs cs
        in
        ignore last;
        let result =
          Transient.simulate
            ~config:{ Transient.Config.default with integration }
            nl ~t_end:(5.0 *. tau) ~dt ~probes:!probes
        in
        List.for_all
          (fun p ->
            let w = Transient.get result p in
            let lo, hi =
              Rlc_numerics.Stats.min_max (Rlc_waveform.Waveform.values w)
            in
            lo >= -1e-9 && hi <= 1.0 +. 1e-9)
          !probes
      in
      (* G_ii of node i: its links to node i-1 (or the source) and i+1 *)
      let gs = Array.of_list (List.map (fun r -> 1.0 /. r) rs) in
      let dt_mp =
        List.fold_left Float.min infinity
          (List.mapi
             (fun i c ->
               let g_next = if i + 1 < Array.length gs then gs.(i + 1) else 0.0 in
               2.0 *. c /. (gs.(i) +. g_next))
             cs)
      in
      bounded Transient.Backward_euler (tau /. 500.0)
      && bounded Transient.Trapezoidal (Float.min (tau /. 500.0) dt_mp))

let test_trapezoidal_second_order_convergence () =
  (* error at a fixed time scales ~ dt^2 for the trapezoidal rule *)
  let value dt =
    let open Rlc_circuit in
    let nl = Netlist.create () in
    let a = Netlist.fresh_node nl in
    let b = Netlist.fresh_node nl in
    Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
    Netlist.add_resistor nl a b 1e3;
    Netlist.add_capacitor nl b Netlist.ground 1e-9;
    let r =
      Transient.simulate nl ~t_end:1.0001e-6 ~dt ~probes:[ Transient.Node_v b ]
    in
    Rlc_waveform.Waveform.value_at (Transient.get r (Transient.Node_v b)) 1e-6
  in
  let exact = 1.0 -. Float.exp (-1.0) in
  let err dt = Float.abs (value dt -. exact) in
  let e1 = err 2e-8 and e2 = err 1e-8 in
  let order = Float.log (e1 /. e2) /. Float.log 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "observed order %.2f in [1.7, 2.3]" order)
    true
    (order > 1.7 && order < 2.3)

let test_backward_euler_first_order_convergence () =
  let value dt =
    let open Rlc_circuit in
    let nl = Netlist.create () in
    let a = Netlist.fresh_node nl in
    let b = Netlist.fresh_node nl in
    Netlist.add_vsource nl a Netlist.ground (Stimulus.Dc 1.0);
    Netlist.add_resistor nl a b 1e3;
    Netlist.add_capacitor nl b Netlist.ground 1e-9;
    let r =
      Transient.simulate
        ~config:
          { Transient.Config.default with integration = Transient.Backward_euler }
        nl ~t_end:1.0001e-6 ~dt ~probes:[ Transient.Node_v b ]
    in
    Rlc_waveform.Waveform.value_at (Transient.get r (Transient.Node_v b)) 1e-6
  in
  let exact = 1.0 -. Float.exp (-1.0) in
  let err dt = Float.abs (value dt -. exact) in
  let order = Float.log (err 2e-8 /. err 1e-8) /. Float.log 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "observed order %.2f in [0.8, 1.2]" order)
    true
    (order > 0.8 && order < 1.2)

let () =
  Alcotest.run "properties"
    [
      qsuite "tree"
        [
          prop_tree_elmore_matches_oracle;
          prop_tree_segmentation_preserves_totals;
          prop_tree_segmentation_preserves_elmore;
        ];
      qsuite "stimulus" [ prop_pulse_within_envelope; prop_pwl_within_envelope ];
      qsuite "stage-physics"
        [ prop_lcrit_separates_damping; prop_frequency_gd_positive_at_low_f ];
      qsuite "power" [ prop_power_monotone ];
      qsuite "coupled" [ prop_coupled_mode_capacitance ];
      qsuite "eye" [ prop_eye_prbs_balanced ];
      qsuite "insertion" [ prop_insertion_bound ];
      qsuite "assembly"
        [
          prop_assembly_matches_dense_oracle;
          prop_ac_backends_agree;
          prop_dc_matches_dense_oracle;
          prop_transient_backends_agree;
          prop_sparse_matches_dense_oracle;
        ];
      qsuite "simulator-passivity" [ prop_rc_ladder_passivity ];
      ( "simulator-convergence",
        [
          Alcotest.test_case "trapezoidal is second order" `Quick
            test_trapezoidal_second_order_convergence;
          Alcotest.test_case "backward euler is first order" `Quick
            test_backward_euler_first_order_convergence;
        ] );
    ]
