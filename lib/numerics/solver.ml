module M = Rlc_instr.Metrics

let m_plan_banded = M.counter "solver.plan.banded"
let m_plan_dense = M.counter "solver.plan.dense"
let m_plan_sparse = M.counter "solver.plan.sparse"
let m_bandwidth = M.gauge "solver.plan.bandwidth"
let m_n = M.gauge "solver.plan.n"
let m_sparse_flops = M.gauge "solver.plan.sparse_flops"
let m_factor = M.counter "solver.factor"
let m_factor_s = M.hist "solver.factor_s"
let m_solve = M.counter "solver.solve"
let m_solve_s = M.hist "solver.solve_s"
let m_cfactor = M.counter "solver.cfactor"
let m_cfactor_s = M.hist "solver.cfactor_s"
let m_csolve = M.counter "solver.csolve"
let m_csolve_s = M.hist "solver.csolve_s"
let m_analyze = M.counter "solver.sparse.analyze"
let m_refactor = M.counter "solver.sparse.refactor"
let m_canalyze = M.counter "solver.sparse.canalyze"
let m_crefactor = M.counter "solver.sparse.crefactor"
let m_repivot = M.counter "solver.sparse.repivot"
let m_lu_nnz = M.gauge "solver.sparse.lu_nnz"

exception Singular = Lu.Singular

type backend = Auto | Dense | Banded | Sparse
type choice = Dense_lu | Banded_lu | Sparse_lu

type plan = {
  n : int;
  perm : int array;
  kl : int;
  ku : int;
  choice : choice;
  sparse_flops : float;
}

(* Banded-vs-dense: the band must occupy at most a third of the matrix
   and the system must be big enough for the bookkeeping to pay off;
   RC/RLC ladders have kl = ku of 2-3 independent of length. *)
let banded_pays ~n ~kl ~ku = n >= 12 && 3 * (kl + ku + 1) <= n

(* A band this narrow is chain structure: the banded kernel is within
   a small constant of optimal and the min-degree analysis would cost
   more than it could save.  Everything the repository built before
   the sparse backend (ladders, buses, small meshes) lands here, which
   is what keeps those plans — permutation, backend, results —
   bit-identical to the pre-sparse ones. *)
let narrow_band ~kl ~ku = kl + ku <= 16

(* One sparse "flop" pays for index chasing a dense flop does not; the
   factor was calibrated on the RC-grid matrix of BENCH_sparse.json.
   Measured on those grids, a fresh sparse factor crosses the banded
   kernel near a 48x48 mesh but a symbolic-reusing refactor — what AC
   sweeps and transient restamps actually pay per point — already wins
   from 24x24, so the penalty is set to put the crossover there: 24x24
   and larger meshes route to sparse, 16x16 stays banded. *)
let sparse_flop_penalty = 3.0

let bandwidths_under perm adj =
  let kl = ref 0 and ku = ref 0 in
  Array.iteri
    (fun i neighbours ->
      List.iter
        (fun j ->
          let d = perm.(i) - perm.(j) in
          if d > !kl then kl := d;
          if -d > !ku then ku := -d)
        neighbours)
    adj;
  (!kl, !ku)

let plan ?(backend = Auto) adj =
  let n = Array.length adj in
  if n = 0 then invalid_arg "Solver.plan: empty adjacency";
  let rcm_perm = lazy (Rcm.permutation adj) in
  let rcm_widths = lazy (bandwidths_under (Lazy.force rcm_perm) adj) in
  let mindeg = lazy (Mindeg.order adj) in
  (* LU on a structurally symmetric pattern does about twice the
     Cholesky-shaped work the estimator counts, plus a traversal term
     per stored entry *)
  let mindeg_flops () =
    let md = Lazy.force mindeg in
    (2.0 *. md.Mindeg.flops) +. (8.0 *. md.Mindeg.fill)
  in
  let choice =
    match backend with
    | Dense -> Dense_lu
    | Banded -> Banded_lu
    | Sparse -> Sparse_lu
    | Auto ->
        let kl, ku = Lazy.force rcm_widths in
        if narrow_band ~kl ~ku then
          if banded_pays ~n ~kl ~ku then Banded_lu else Dense_lu
        else begin
          let fn = float_of_int n in
          let dense_flops = fn *. fn *. fn /. 3.0 in
          let banded_flops =
            fn *. float_of_int kl *. float_of_int (kl + ku + 1)
          in
          let sparse_cost = sparse_flop_penalty *. mindeg_flops () in
          if sparse_cost < banded_flops && sparse_cost < dense_flops then
            Sparse_lu
          else if banded_pays ~n ~kl ~ku then Banded_lu
          else Dense_lu
        end
  in
  let perm, sparse_flops =
    match choice with
    | Sparse_lu -> ((Lazy.force mindeg).Mindeg.perm, mindeg_flops ())
    | Dense_lu | Banded_lu -> (Lazy.force rcm_perm, 0.0)
  in
  let kl, ku =
    match choice with
    | Sparse_lu -> bandwidths_under perm adj
    | Dense_lu | Banded_lu -> Lazy.force rcm_widths
  in
  M.incr
    (match choice with
    | Banded_lu -> m_plan_banded
    | Dense_lu -> m_plan_dense
    | Sparse_lu -> m_plan_sparse);
  M.set m_bandwidth (Float.of_int (kl + ku + 1));
  M.set m_n (Float.of_int n);
  if choice = Sparse_lu then M.set m_sparse_flops sparse_flops;
  { n; perm; kl; ku; choice; sparse_flops }

type factor =
  | F_dense of Lu.t
  | F_banded of Banded.t
  | F_sparse of Sparse.t

type symbolic = Sparse.symbolic

let symbolic_of = function
  | F_sparse sf -> Some (Sparse.symbolic sf)
  | F_dense _ | F_banded _ -> None

(* [fill] with the plan's permutation applied to both indices *)
let permuted p fill add = fill (fun i j v -> add p.perm.(i) p.perm.(j) v)

(* The repivot fallback is the serving layer's main health signal:
   journal it (with the plan size, under the current provenance) and
   count the solve as degraded — the fresh analysis that follows
   reports its own classification. *)
let note_fallback ~kind n =
  M.incr m_repivot;
  if Rlc_instr.Journal.capturing () then
    Rlc_instr.Journal.record "solver.fallback"
      [
        ("kind", Rlc_instr.Journal.Str kind);
        ("reason", Rlc_instr.Journal.Str "repivot");
        ("n", Rlc_instr.Journal.Int n);
      ];
  Rlc_instr.Health.degraded ~kind ~reason:"repivot"

(* The sparse backend's analyse -> refactor -> repivot-fallback
   block, once for both fields: [fresh a] analyses, [replay sym a]
   replays a recorded analysis.  A replay whose values moved too far
   from the analysed ones for the recorded pivots re-analyses (a
   genuinely singular system re-raises from the fresh factor). *)
let sparse_factor ?symbolic ~kind ~n ~m_analyze ~m_refactor ~fresh ~replay
    ~lu_nnz a =
  let sf =
    match symbolic with
    | None ->
        M.incr m_analyze;
        fresh a
    | Some sym -> begin
        try
          let sf = replay sym a in
          M.incr m_refactor;
          sf
        with Sparse.Repivot | Singular ->
          note_fallback ~kind n;
          M.incr m_analyze;
          fresh a
      end
  in
  M.set m_lu_nnz (Float.of_int (lu_nnz sf));
  sf

let factor ?symbolic p ~fill =
  M.incr m_factor;
  M.timed m_factor_s (fun () ->
      match p.choice with
      | Banded_lu ->
          let s = Banded.create_storage ~n:p.n ~kl:p.kl ~ku:p.ku in
          fill (fun i j v -> Banded.add_to s p.perm.(i) p.perm.(j) v);
          F_banded (Banded.decompose s)
      | Dense_lu ->
          let a = Matrix.create p.n p.n in
          fill (fun i j v -> Matrix.add_to a p.perm.(i) p.perm.(j) v);
          F_dense (Lu.decompose a)
      | Sparse_lu ->
          F_sparse
            (sparse_factor ?symbolic ~kind:"sparse" ~n:p.n
               ~m_analyze ~m_refactor
               ~fresh:(fun a -> Sparse.factor a)
               ~replay:(fun sym a -> Sparse.refactor sym a)
               ~lu_nnz:Sparse.lu_nnz
               (Sparse.of_fill ?like:symbolic ~n:p.n (permuted p fill))))

let solve_permuted_into_raw f ~b ~x =
  match f with
  | F_dense lu -> Lu.solve_into lu ~b ~x
  | F_banded bd -> Banded.solve_into bd ~b ~x
  | F_sparse sf -> Sparse.solve_into sf ~b ~x

let solve_permuted_into f ~b ~x =
  (* hot path: when recording is off this is one predicted branch on
     top of the raw solve — no closure, no timing syscalls *)
  if M.recording () then begin
    M.incr m_solve;
    let t = Rlc_instr.Timer.start () in
    solve_permuted_into_raw f ~b ~x;
    M.observe m_solve_s (Rlc_instr.Timer.elapsed_s t)
  end
  else solve_permuted_into_raw f ~b ~x

(* Natural-coordinate solves permute [b] into the scratch, solve in
   permuted coordinates and un-permute into [x], so [b] and [x] may
   alias.  The checks are shared; the two permute loops stay typed
   per field, because a polymorphic loop would box every float. *)
let check_natural ~who p ~sb ~b ~x =
  let n = p.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg (who ^ ": size mismatch");
  if Array.length sb <> n then
    invalid_arg (who ^ ": scratch from another plan")

type scratch = { sb : float array; sx : float array }

let scratch p = { sb = Array.make p.n 0.0; sx = Array.make p.n 0.0 }

let solve_into p f { sb; sx } ~b ~x =
  check_natural ~who:"Solver.solve_into" p ~sb ~b ~x;
  for i = 0 to p.n - 1 do
    sb.(p.perm.(i)) <- b.(i)
  done;
  solve_permuted_into f ~b:sb ~x:sx;
  for i = 0 to p.n - 1 do
    x.(i) <- sx.(p.perm.(i))
  done

let solve p f b =
  if Array.length b <> p.n then invalid_arg "Solver.solve: size mismatch";
  let x = Array.make p.n 0.0 in
  solve_into p f (scratch p) ~b ~x;
  x

type cfactor =
  | C_dense of Clu.t
  | C_banded of Cbanded.t
  | C_sparse of Sparse.ct

let csymbolic_of = function
  | C_sparse sf -> Some (Sparse.csymbolic sf)
  | C_dense _ | C_banded _ -> None

let cfactor ?symbolic p ~fill =
  M.incr m_cfactor;
  M.timed m_cfactor_s (fun () ->
      match p.choice with
      | Banded_lu ->
          let s = Cbanded.create_storage ~n:p.n ~kl:p.kl ~ku:p.ku in
          fill (fun i j v -> Cbanded.add_to s p.perm.(i) p.perm.(j) v);
          C_banded (Cbanded.decompose s)
      | Dense_lu ->
          let a = Cmatrix.create p.n p.n in
          fill (fun i j v -> Cmatrix.add_to a p.perm.(i) p.perm.(j) v);
          C_dense (Clu.decompose a)
      | Sparse_lu ->
          C_sparse
            (sparse_factor ?symbolic ~kind:"csparse" ~n:p.n
               ~m_analyze:m_canalyze ~m_refactor:m_crefactor
               ~fresh:(fun a -> Sparse.cfactor a)
               ~replay:(fun sym a -> Sparse.crefactor sym a)
               ~lu_nnz:Sparse.clu_nnz
               (Sparse.cof_fill ?like:symbolic ~n:p.n (permuted p fill))))

type cscratch = { cb : Cx.t array; cx : Cx.t array }

let cscratch p = { cb = Array.make p.n Cx.zero; cx = Array.make p.n Cx.zero }

let csolve_permuted_into_raw f ~b ~x =
  match f with
  | C_dense lu -> Clu.solve_into lu ~b ~x
  | C_banded bd -> Cbanded.solve_into bd ~b ~x
  | C_sparse sf -> Sparse.csolve_into sf ~b ~x

let csolve_permuted_into f ~b ~x =
  if M.recording () then begin
    M.incr m_csolve;
    let t = Rlc_instr.Timer.start () in
    csolve_permuted_into_raw f ~b ~x;
    M.observe m_csolve_s (Rlc_instr.Timer.elapsed_s t)
  end
  else csolve_permuted_into_raw f ~b ~x

let csolve_into p f { cb; cx } ~b ~x =
  check_natural ~who:"Solver.csolve_into" p ~sb:cb ~b ~x;
  for i = 0 to p.n - 1 do
    cb.(p.perm.(i)) <- b.(i)
  done;
  csolve_permuted_into f ~b:cb ~x:cx;
  for i = 0 to p.n - 1 do
    x.(i) <- cx.(p.perm.(i))
  done

let csolve p f b =
  if Array.length b <> p.n then invalid_arg "Solver.csolve: size mismatch";
  let x = Array.make p.n Cx.zero in
  csolve_into p f (cscratch p) ~b ~x;
  x
