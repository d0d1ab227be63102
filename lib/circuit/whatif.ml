open Rlc_numerics
module M = Rlc_instr.Metrics

let m_compile = M.counter "whatif.compile"
let m_update = M.counter "whatif.update"
let m_refactor = M.counter "whatif.refactor"
let m_fallback = M.counter "whatif.fallback"
let m_adjoint = M.counter "whatif.adjoint"

(* A perturbation direction: a sparse +/-1 incidence vector in MNA
   unknown coordinates (ground eliminated).  Every elementary value
   perturbation shifts G or C by [delta * u v^T] with u, v of this
   shape — one or two entries. *)
type vec = { vidx : int array; vsgn : float array }

type term = {
  tid : int;  (* workspace-unique id: the z-cache key *)
  tmat : [ `G | `C ];
  tu : vec;
  tv : vec;
  mutable dense : (float array * float array) option;  (* u, v densified *)
}

type param = {
  p_base : float;
  p_terms : term array;
  p_delta : float -> float;  (* absolute value -> stamp delta *)
  p_ddelta : float -> float;  (* d delta / d value *)
  p_ok : float -> bool;  (* physical-domain check *)
}

type ac_point = {
  acf : Solver.cfactor;
  ac_x0 : Cx.t array;  (* A^-1 b for the first source *)
  ac_z : (int, Cx.t array) Hashtbl.t;  (* term id -> A^-1 u *)
}

type t = {
  netlist : Netlist.t;
  elems : Netlist.element array;
  asm : Assembly.t;
  f_threshold : float;
  max_rank : int;
  condition_limit : float;
  base_factor : Solver.factor;
  g_symbolic : Solver.symbolic option;
  rhs0 : float array;
  x0 : float array;  (* base_factor^-1 rhs0, from the DC system *)
  b0c : Cx.t array Lazy.t;  (* the first source's B column, complex *)
  zcache : (int, float array) Hashtbl.t;  (* term id -> G^-1 u *)
  mutable tfactor : Solver.factor option;  (* lazy factor of G^T *)
  params : (string * [ `R | `L | `C | `M ], param) Hashtbl.t;
  mutable next_tid : int;
  ac : (float, ac_point) Hashtbl.t;  (* omega -> cached AC point *)
  mutable ac_sym : Solver.symbolic option;
  mutable n_updates : int;
  mutable n_refactors : int;
  mutable n_fallbacks : int;
}

let assembly t = t.asm
let g_symbolic t = t.g_symbolic

let compile ?(max_rank = 8) ?(condition_limit = 1e8) ?(f = 0.5) ?assembly
    ?symbolic netlist =
  if max_rank < 0 then invalid_arg "Whatif.compile: max_rank < 0";
  if not (condition_limit > 1.0) then
    invalid_arg "Whatif.compile: condition_limit <= 1";
  if f <= 0.0 || f >= 1.0 then invalid_arg "Whatif.compile: f outside (0,1)";
  let sys = Dc.make ?assembly ?symbolic netlist in
  let asm = Dc.assembly sys in
  M.incr m_compile;
  {
    netlist;
    elems = Netlist.elements netlist;
    asm;
    f_threshold = f;
    max_rank;
    condition_limit;
    base_factor = Dc.factor sys;
    g_symbolic = Dc.g_symbolic sys;
    rhs0 = Dc.rhs sys;
    x0 = Array.copy (Dc.unknowns sys);
    b0c = lazy (Array.map Cx.of_float (Assembly.b_column asm 0));
    zcache = Hashtbl.create 16;
    tfactor = None;
    params = Hashtbl.create 16;
    next_tid = 0;
    ac = Hashtbl.create 8;
    ac_sym = None;
    n_updates = 0;
    n_refactors = 0;
    n_fallbacks = 0;
  }

(* ---------------- parameters ---------------- *)

let node_vec a b =
  let entries =
    List.filter (fun (n, _) -> n <> Netlist.ground) [ (a, 1.0); (b, -1.0) ]
  in
  {
    vidx = Array.of_list (List.map (fun (n, _) -> n - 1) entries);
    vsgn = Array.of_list (List.map snd entries);
  }

let fresh_term t (tmat, tu, tv) =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  { tid; tmat; tu; tv; dense = None }

let positive v = v > 0.0 && Float.is_finite v

(* The two handle shapes.  A conductance handle stamps 1/value on one
   node-pair direction of G; an additive handle shifts each of its
   (matrix, u, v) terms by value - base. *)
let conductance t base w =
  {
    p_base = base;
    p_terms = [| fresh_term t (`G, w, w) |];
    p_delta = (fun r -> (1.0 /. r) -. (1.0 /. base));
    p_ddelta = (fun r -> -1.0 /. (r *. r));
    p_ok = positive;
  }

let additive t base terms =
  {
    p_base = base;
    p_terms = Array.map (fresh_term t) terms;
    p_delta = (fun v -> v -. base);
    p_ddelta = (fun _ -> 1.0);
    p_ok = positive;
  }

let param t name kind =
  match Hashtbl.find_opt t.params (name, kind) with
  | Some p -> p
  | None ->
      let id =
        match Netlist.find_element t.netlist name with
        | Some id -> id
        | None -> invalid_arg ("Whatif.param: unknown element " ^ name)
      in
      let reject what =
        invalid_arg
          (Printf.sprintf "Whatif.param: element %s has no %s value" name what)
      in
      (* the element's k-th branch-current row *)
      let row k =
        { vidx = [| t.asm.Assembly.current_rows.(id).(k) |]; vsgn = [| 1.0 |] }
      in
      let p =
        match (t.elems.(id), kind) with
        (* a zero-henry branch stamps as a plain conductance: no branch
           row *)
        | ( Netlist.Resistor { a; b; ohms }
          | Netlist.Rl_branch { a; b; ohms; henries = 0.0 } ),
          `R ->
            conductance t ohms (node_vec a b)
        | Netlist.Rl_branch { ohms; _ }, `R ->
            additive t ohms [| (`G, row 0, row 0) |]
        | Netlist.Rl_branch { henries = 0.0; _ }, `L ->
            reject "inductance (henries = 0 stamps as a resistor)"
        | Netlist.Rl_branch { henries; _ }, `L ->
            additive t henries [| (`C, row 0, row 0) |]
        | Netlist.Capacitor { a; b; farads }, `C ->
            let w = node_vec a b in
            additive t farads [| (`C, w, w) |]
        | Netlist.Coupled_rl { ohms; _ }, `R ->
            additive t ohms [| (`G, row 0, row 0); (`G, row 1, row 1) |]
        | Netlist.Coupled_rl { henries; _ }, `L ->
            additive t henries [| (`C, row 0, row 0); (`C, row 1, row 1) |]
        | Netlist.Coupled_rl { mutual; _ }, `M ->
            {
              (additive t mutual [| (`C, row 0, row 1); (`C, row 1, row 0) |])
              with
              p_ok = (fun m -> m >= 0.0 && Float.is_finite m);
            }
        | Netlist.Resistor _, (`L | `C | `M) -> reject "non-resistance"
        | Netlist.Rl_branch _, (`C | `M) -> reject "capacitance or mutual"
        | Netlist.Capacitor _, (`R | `L | `M) -> reject "non-capacitance"
        | Netlist.Coupled_rl _, `C -> reject "capacitance"
        | (Netlist.Vsource _ | Netlist.Isource _ | Netlist.Inverter _), _ ->
            reject "perturbable"
      in
      Hashtbl.add t.params (name, kind) p;
      p

let base_value p = p.p_base

(* ---------------- evaluation plumbing ---------------- *)

type target =
  | Dc_voltage of Netlist.node
  | Delay of Netlist.node
  | Ac_mag of Netlist.node * float

let size t = t.asm.Assembly.size
let plan t = t.asm.Assembly.plan

let dense t term =
  match term.dense with
  | Some uv -> uv
  | None ->
      let densify vec =
        let a = Array.make (size t) 0.0 in
        Array.iteri (fun k i -> a.(i) <- a.(i) +. vec.vsgn.(k)) vec.vidx;
        a
      in
      let uv = (densify term.tu, densify term.tv) in
      term.dense <- Some uv;
      uv

let sparse_dot vec x =
  let acc = ref 0.0 in
  Array.iteri (fun k i -> acc := !acc +. (vec.vsgn.(k) *. x.(i))) vec.vidx;
  !acc

(* Active (term, delta) pairs on one matrix for a settings list. *)
let active_terms which set =
  List.concat_map
    (fun (p, value) ->
      let d = p.p_delta value in
      if d = 0.0 then []
      else
        Array.to_list p.p_terms
        |> List.filter_map (fun term ->
               if term.tmat = which then Some (term, d) else None))
    set

(* The delta-stamp fill behind every refactor and transposed factor
   the workspace builds, real or complex ([scale k d] is the scalar's
   k * d): the base stamps through [base], then 4 entries per rank-1
   (term, delta) pair (fewer at ground).  Every position is inside the
   base pattern, so the factor can replay the base symbolic analysis.
   [transpose] stamps (j, i) for (i, j): the MNA pattern is
   structurally symmetric (the skew branch coupling occupies mirrored
   slots), so the adjoint's transposed stamps respect the same plan
   bandwidths and replay the same symbolic (with the usual repivot
   fallback). *)
let fill ~transpose ~scale base terms add =
  let add = if transpose then fun i j v -> add j i v else add in
  base add;
  List.iter
    (fun (tm, d) ->
      Array.iteri
        (fun a i ->
          let si = tm.tu.vsgn.(a) in
          Array.iteri
            (fun b j -> add i j (scale (si *. tm.tv.vsgn.(b)) d))
            tm.tv.vidx)
        tm.tu.vidx)
    terms

let factor_g t ~transpose gterms =
  Solver.factor ?symbolic:t.g_symbolic (plan t)
    ~fill:
      (fill ~transpose ~scale:( *. ) (Assembly.Coo.iter t.asm.Assembly.g)
         gterms)

(* A G delta shifts A = G + sC by [delta u v^T], a C delta by
   [s delta u v^T]. *)
let factor_ac t ~s ~transpose terms =
  Solver.cfactor ?symbolic:t.ac_sym (plan t)
    ~fill:(fill ~transpose ~scale:Cx.scale (Assembly.cfill t.asm s) terms)

let count_update t =
  t.n_updates <- t.n_updates + 1;
  if M.recording () then M.incr m_update

let count_refactor t ~fallback =
  t.n_refactors <- t.n_refactors + 1;
  if fallback then t.n_fallbacks <- t.n_fallbacks + 1;
  if M.recording () then begin
    M.incr m_refactor;
    if fallback then M.incr m_fallback
  end

(* The one rank-k guard, for the real DC system and the complex AC one
   alike: [k] delta terms are served by the Woodbury view [make ()]
   unless [max_rank] is 0, k is over it, the view's capacitance matrix
   is worse conditioned than [condition_limit] or singular; then by a
   counted numeric [refactor ()].  A tripped guard is a fallback: it
   is journaled with its reason, and the solve counts as degraded when
   conditioning, not bookkeeping, caused it. *)
let guarded t k ~make ~condition ~updated ~refactor =
  let fallback reason extra =
    if Rlc_instr.Journal.capturing () then
      Rlc_instr.Journal.record "smw.guard"
        ([
           ("reason", Rlc_instr.Journal.Str reason);
           ("rank", Rlc_instr.Journal.Int k);
         ]
        @ extra);
    if reason <> "rank" then
      Rlc_instr.Health.degraded ~kind:"smw" ~reason:("guard: " ^ reason);
    count_refactor t ~fallback:true;
    refactor ()
  in
  if t.max_rank = 0 then begin
    count_refactor t ~fallback:false;
    refactor ()
  end
  else if k > t.max_rank then fallback "rank" []
  else
    match make () with
    | upd when condition upd <= t.condition_limit ->
        count_update t;
        updated upd
    | upd ->
        fallback "condition"
          [ ("condition", Rlc_instr.Journal.Num (condition upd)) ]
    | exception Update.Singular -> fallback "singular" []

let zcol t term =
  match Hashtbl.find_opt t.zcache term.tid with
  | Some z -> z
  | None ->
      let z = Solver.solve (plan t) t.base_factor (fst (dense t term)) in
      Hashtbl.add t.zcache term.tid z;
      z

(* How the perturbed G is served: untouched, a Woodbury view over the
   base factor, or a numeric refactor reusing the symbolic. *)
type resolved =
  | R_base
  | R_updated of Update.t
  | R_refactored of Solver.factor

let resolve_g t gterms =
  match gterms with
  | [] -> R_base
  | _ ->
      let terms = Array.of_list gterms in
      guarded t (Array.length terms)
        ~make:(fun () ->
          let u = Array.map (fun (tm, _) -> fst (dense t tm)) terms in
          let v = Array.map (fun (tm, _) -> snd (dense t tm)) terms in
          let z = Array.map (fun (tm, _) -> zcol t tm) terms in
          let scale = Array.map snd terms in
          Update.make ~z ~scale (plan t) t.base_factor ~u ~v)
        ~condition:Update.condition
        ~updated:(fun upd -> R_updated upd)
        ~refactor:(fun () ->
          R_refactored (factor_g t ~transpose:false gterms))

let solve_resolved t res b =
  match res with
  | R_base -> Solver.solve (plan t) t.base_factor b
  | R_updated upd -> Update.solve upd b
  | R_refactored f -> Solver.solve (plan t) f b

(* ---------------- DC ---------------- *)

let check_node t node ctx =
  if node < 0 || node >= t.asm.Assembly.n_nodes then
    invalid_arg (Printf.sprintf "Whatif.%s: node %d out of range" ctx node)

let dc_solution t set =
  match resolve_g t (active_terms `G set) with
  | R_base -> t.x0
  | R_updated upd ->
      let x = Array.make (size t) 0.0 in
      Update.apply upd ~x0:t.x0 ~x;
      x
  | R_refactored f -> Solver.solve (plan t) f t.rhs0

let dc_eval t set node =
  check_node t node "evaluate";
  let x = dc_solution t set in
  if node = Netlist.ground then 0.0 else x.(node - 1)

(* ---------------- two-pole delay from moments ---------------- *)

(* The f-delay of 1 / (1 + b1 s + b2 s^2): nan unless the pair is
   physical (an unstable or non-second-order response). *)
let crossing_tau ~f ~b1 ~b2 =
  if not (b1 > 0.0 && b2 > 0.0) then Float.nan
  else Rlc_core.Delay.of_coeffs ~f { Rlc_core.Pade.b1; b2 }

(* The Pade pair of the moments [m] at unknown [p]. *)
let two_pole m p =
  let m0 = m.(0).(p) and m1 = m.(1).(p) and m2 = m.(2).(p) in
  if Float.abs m0 < 1e-300 then (Float.nan, Float.nan)
  else begin
    let r1 = m1 /. m0 in
    (-.r1, (r1 *. r1) -. (m2 /. m0))
  end

let require_source t ctx =
  if Array.length t.asm.Assembly.inputs = 0 then
    invalid_arg ("Whatif." ^ ctx ^ ": deck has no sources")

(* The unknown a delay target probes. *)
let delay_unknown t node ctx =
  check_node t node ctx;
  if node = Netlist.ground then
    invalid_arg ("Whatif." ^ ctx ^ ": delay at ground");
  require_source t ctx;
  node - 1

(* C' * y, or C'^T * y with [transpose], with the value deltas applied
   on the fly. *)
let cmatvec t cterms ~transpose y =
  let r = Array.make (size t) 0.0 in
  let acc i j v = r.(i) <- r.(i) +. (v *. y.(j)) in
  Assembly.Coo.iter t.asm.Assembly.c
    (if transpose then fun i j v -> acc j i v else acc);
  List.iter
    (fun (tm, d) ->
      let u, v = if transpose then (tm.tv, tm.tu) else (tm.tu, tm.tv) in
      let vy = sparse_dot v y in
      Array.iteri (fun a i -> r.(i) <- r.(i) +. (d *. u.vsgn.(a) *. vy)) u.vidx)
    cterms;
  r

(* The first three moments y0 = solve b, y(k+1) = -solve (C' yk): the
   transfer from the deck's first source through the forward factor,
   or with [transpose] the adjoint recurrence from a unit probe
   through the transposed one. *)
let moments t cterms ~transpose solve b =
  let y0 = solve b in
  let y1 = Array.map Float.neg (solve (cmatvec t cterms ~transpose y0)) in
  let y2 = Array.map Float.neg (solve (cmatvec t cterms ~transpose y1)) in
  [| y0; y1; y2 |]

let delay_eval t set node =
  let p = delay_unknown t node "evaluate" in
  let res = resolve_g t (active_terms `G set) in
  let ys =
    moments t (active_terms `C set) ~transpose:false (solve_resolved t res)
      (Assembly.b_column t.asm 0)
  in
  let b1, b2 = two_pole ys p in
  crossing_tau ~f:t.f_threshold ~b1 ~b2

(* ---------------- AC ---------------- *)

let ac_point t omega =
  match Hashtbl.find_opt t.ac omega with
  | Some pt -> pt
  | None ->
      let s = Cx.make 0.0 omega in
      let acf =
        Solver.cfactor ?symbolic:t.ac_sym (plan t)
          ~fill:(Assembly.cfill t.asm s)
      in
      (match t.ac_sym with
      | None -> t.ac_sym <- Solver.csymbolic_of acf
      | Some _ -> ());
      let pt =
        {
          acf;
          ac_x0 = Solver.csolve (plan t) acf (Lazy.force t.b0c);
          ac_z = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.ac omega pt;
      pt

let czcol t pt term =
  match Hashtbl.find_opt pt.ac_z term.tid with
  | Some z -> z
  | None ->
      let u = Array.map Cx.of_float (fst (dense t term)) in
      let z = Solver.csolve (plan t) pt.acf u in
      Hashtbl.add pt.ac_z term.tid z;
      z

let ac_terms ~s set =
  List.map (fun (tm, d) -> (tm, Cx.of_float d)) (active_terms `G set)
  @ List.map
      (fun (tm, d) -> (tm, Cx.scale d s))
      (active_terms `C set)

let ac_solution t set omega =
  let s = Cx.make 0.0 omega in
  let pt = ac_point t omega in
  match ac_terms ~s set with
  | [] -> pt.ac_x0
  | terms ->
      let arr = Array.of_list terms in
      let columns side =
        Array.map (fun (tm, _) -> Array.map Cx.of_float (side (dense t tm))) arr
      in
      guarded t (Array.length arr)
        ~make:(fun () ->
          let u = columns fst in
          let v = columns snd in
          let z = Array.map (fun (tm, _) -> czcol t pt tm) arr in
          let scale = Array.map snd arr in
          Update.cmake ~z ~scale (plan t) pt.acf ~u ~v)
        ~condition:Update.ccondition
        ~updated:(fun upd ->
          let x = Array.make (size t) Cx.zero in
          Update.capply upd ~x0:pt.ac_x0 ~x;
          x)
        ~refactor:(fun () ->
          Solver.csolve (plan t)
            (factor_ac t ~s ~transpose:false terms)
            (Lazy.force t.b0c))

let ac_eval t set node omega =
  check_node t node "evaluate";
  require_source t "evaluate";
  if not (Float.is_finite omega) then
    invalid_arg "Whatif.evaluate: non-finite omega";
  let x = ac_solution t set omega in
  if node = Netlist.ground then 0.0 else Cx.norm x.(node - 1)

(* ---------------- evaluate ---------------- *)

(* The rejection convention of [evaluate] and [gradient]: a
   non-physical setting, a singular system or a failed crossing
   answers [nan ()]. *)
let rejecting set ~nan f =
  if List.exists (fun (p, v) -> not (Float.is_finite v && p.p_ok v)) set then
    nan ()
  else
    try f () with
    | Solver.Singular
    | Roots.No_bracket
    | Rlc_core.Delay.No_delay
    | Roots.No_convergence _ ->
        nan ()

let evaluate ?(set = []) t target =
  rejecting set ~nan:(fun () -> Float.nan) (fun () ->
      match target with
      | Dc_voltage node -> dc_eval t set node
      | Delay node -> delay_eval t set node
      | Ac_mag (node, omega) -> ac_eval t set node omega)

(* ---------------- adjoint gradients ---------------- *)

let base_transpose_factor t =
  match t.tfactor with
  | Some f -> f
  | None ->
      let f = factor_g t ~transpose:true [] in
      t.tfactor <- Some f;
      f

(* Forward/adjoint factor pair at a settings point: base factors when
   the settings leave G untouched, exact refactors otherwise (the
   gradient path is exact by construction; Woodbury views are for the
   value-sweep hot loop). *)
let gradient_factors t gterms =
  match gterms with
  | [] -> (t.base_factor, base_transpose_factor t)
  | _ -> (factor_g t ~transpose:false gterms, factor_g t ~transpose:true gterms)

let unit_vec n p =
  let e = Array.make n 0.0 in
  e.(p) <- 1.0;
  e

(* Value a parameter takes at a settings point. *)
let value_at set p =
  match List.find_opt (fun (q, _) -> q == p) set with
  | Some (_, v) -> v
  | None -> p.p_base

let dc_gradient t set node ~wrt =
  check_node t node "gradient";
  if node = Netlist.ground then Array.make (Array.length wrt) 0.0
  else begin
    let gterms = active_terms `G set in
    let fwd, adj = gradient_factors t gterms in
    let x =
      match gterms with
      | [] -> t.x0
      | _ -> Solver.solve (plan t) fwd t.rhs0
    in
    let lambda = Solver.solve (plan t) adj (unit_vec (size t) (node - 1)) in
    Array.map
      (fun p ->
        let dd = p.p_ddelta (value_at set p) in
        Array.fold_left
          (fun acc tm ->
            if tm.tmat = `G then
              acc -. (dd *. sparse_dot tm.tu lambda *. sparse_dot tm.tv x)
            else acc)
          0.0 p.p_terms)
      wrt
  end

let delay_gradient t set node ~wrt =
  let p = delay_unknown t node "gradient" in
  let gterms = active_terms `G set in
  let cterms = active_terms `C set in
  let fwd, adj = gradient_factors t gterms in
  let ys =
    moments t cterms ~transpose:false (Solver.solve (plan t) fwd)
      (Assembly.b_column t.asm 0)
  in
  let b1, b2 = two_pole ys p in
  let tau = crossing_tau ~f:t.f_threshold ~b1 ~b2 in
  if Float.is_nan tau then Array.make (Array.length wrt) Float.nan
  else begin
    let ls =
      moments t cterms ~transpose:true (Solver.solve (plan t) adj)
        (unit_vec (size t) p)
    in
    let m0 = ys.(0).(p) and m1 = ys.(1).(p) and m2 = ys.(2).(p) in
    (* the crossing's sensitivities to the two coefficients by the
       implicit function theorem on v(tau; b1, b2) = f:
       dtau/db = -(dv/db) / (dv/dt), all in closed form *)
    let sr = Rlc_core.Step_response.partials { Rlc_core.Pade.b1; b2 } tau in
    let dtau_db1 = -.sr.v_b1 /. sr.v_t in
    let dtau_db2 = -.sr.v_b2 /. sr.v_t in
    Array.map
      (fun pr ->
        let dd = pr.p_ddelta (value_at set pr) in
        (* dm_j = - sum_{i+k=j-1} l_i^T dC y_k
                  - sum_{i+k=j}   l_i^T dG y_k, with every rank-1
           contraction an O(1) pair of sparse dots *)
        let dm = [| 0.0; 0.0; 0.0 |] in
        Array.iter
          (fun tm ->
            for i = 0 to 2 do
              for k = 0 to 2 - i do
                let lu = sparse_dot tm.tu ls.(i) in
                let vy = sparse_dot tm.tv ys.(k) in
                let contraction = dd *. lu *. vy in
                let j = if tm.tmat = `G then i + k else i + k + 1 in
                if j <= 2 then dm.(j) <- dm.(j) -. contraction
              done
            done)
          pr.p_terms;
        let r1 = m1 /. m0 in
        let dr1 = ((dm.(1) *. m0) -. (m1 *. dm.(0))) /. (m0 *. m0) in
        let db1 = -.dr1 in
        let db2 =
          (2.0 *. r1 *. dr1)
          -. (((dm.(2) *. m0) -. (m2 *. dm.(0))) /. (m0 *. m0))
        in
        (dtau_db1 *. db1) +. (dtau_db2 *. db2))
      wrt
  end

let ac_gradient t set node omega ~wrt =
  check_node t node "gradient";
  require_source t "gradient";
  if node = Netlist.ground then Array.make (Array.length wrt) 0.0
  else begin
    let s = Cx.make 0.0 omega in
    let terms = ac_terms ~s set in
    let x =
      match terms with
      | [] -> (ac_point t omega).ac_x0
      | _ ->
          (* part of the gradient, not a sweep refactor: don't count *)
          Solver.csolve (plan t)
            (factor_ac t ~s ~transpose:false terms)
            (Lazy.force t.b0c)
    in
    let adj = factor_ac t ~s ~transpose:true terms in
    let e = Array.make (size t) Cx.zero in
    e.(node - 1) <- Cx.one;
    let lambda = Solver.csolve (plan t) adj e in
    let h = x.(node - 1) in
    let habs = Cx.norm h in
    let csparse_dot vec (zv : Cx.t array) =
      let acc = ref Cx.zero in
      Array.iteri
        (fun k i -> acc := Cx.( +: ) !acc (Cx.scale vec.vsgn.(k) zv.(i)))
        vec.vidx;
      !acc
    in
    Array.map
      (fun p ->
        if habs < 1e-300 then Float.nan
        else begin
          let dd = p.p_ddelta (value_at set p) in
          let dh =
            Array.fold_left
              (fun acc tm ->
                let sigma =
                  match tm.tmat with `G -> Cx.one | `C -> s
                in
                let lu = csparse_dot tm.tu lambda in
                let vx = csparse_dot tm.tv x in
                Cx.( -: ) acc (Cx.scale dd (Cx.( *: ) sigma (Cx.( *: ) lu vx))))
              Cx.zero p.p_terms
          in
          Cx.re (Cx.( *: ) (Cx.conj h) dh) /. habs
        end)
      wrt
  end

let gradient ?(set = []) t target ~wrt =
  if M.recording () then M.incr m_adjoint;
  rejecting set
    ~nan:(fun () -> Array.make (Array.length wrt) Float.nan)
    (fun () ->
      match target with
      | Dc_voltage node -> dc_gradient t set node ~wrt
      | Delay node -> delay_gradient t set node ~wrt
      | Ac_mag (node, omega) -> ac_gradient t set node omega ~wrt)

(* ---------------- stats ---------------- *)

type stats = { updates : int; refactors : int; fallbacks : int }

let stats t =
  { updates = t.n_updates; refactors = t.n_refactors;
    fallbacks = t.n_fallbacks }

(* ---------------- the objective closure ---------------- *)

let objective t target ~wrt x =
  if Array.length x <> Array.length wrt then
    invalid_arg "Whatif.objective: parameter vector length mismatch";
  let set = Array.to_list (Array.map2 (fun p v -> (p, v)) wrt x) in
  evaluate ~set t target
