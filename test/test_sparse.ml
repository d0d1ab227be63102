open Rlc_numerics
open Approx

(* deterministic LCG so failures reproduce *)
let rng = ref 42

let rand_float () =
  rng := (!rng * 1103515245) + 12345;
  float_of_int (!rng land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* random structurally-symmetric sparse test matrix: a ring plus random
   chords, diagonally dominated so it is well conditioned *)
let random_pattern n extra =
  let edges = ref [] in
  for i = 0 to n - 1 do
    edges := (i, (i + 1) mod n) :: !edges
  done;
  for _ = 1 to extra do
    let i = int_of_float (rand_float () *. float_of_int n) mod n in
    let j = int_of_float (rand_float () *. float_of_int n) mod n in
    if i <> j then edges := (i, j) :: !edges
  done;
  !edges

let fill_of_edges _n edges vals add =
  List.iteri
    (fun k (i, j) ->
      let v = List.nth vals k in
      add i j (-.v);
      add j i (-.v);
      add i i (v +. 0.7);
      add j j (v +. 0.7))
    edges

let dense_of_fill n fill =
  let m = Matrix.create n n in
  fill (fun i j v -> Matrix.add_to m i j v);
  m

(* ---------------- Sparse kernel vs dense LU ---------------- *)

let test_sparse_vs_dense () =
  List.iter
    (fun (n, extra) ->
      let edges = random_pattern n extra in
      let vals = List.map (fun _ -> 0.25 +. rand_float ()) edges in
      let fill = fill_of_edges n edges vals in
      let a = Sparse.of_fill ~n fill in
      let f = Sparse.factor a in
      let b = Array.init n (fun i -> Float.sin (float_of_int (i + 1))) in
      let x = Array.make n 0.0 in
      Sparse.solve_into f ~b ~x;
      let lu = Lu.decompose (dense_of_fill n fill) in
      let xd = Lu.solve lu b in
      Array.iteri
        (fun i v -> check_close ~tol:1e-12 (Printf.sprintf "x.(%d)" i) v xd.(i))
        x)
    [ (5, 3); (24, 20); (60, 80); (117, 300) ]

let test_sparse_refactor () =
  let n = 40 in
  let edges = random_pattern n 60 in
  let vals = List.map (fun _ -> 0.25 +. rand_float ()) edges in
  let fill = fill_of_edges n edges vals in
  let f0 = Sparse.factor (Sparse.of_fill ~n fill) in
  (* same pattern, different values: refactor must match a fresh solve *)
  let vals2 = List.map (fun v -> (1.7 *. v) +. 0.05) vals in
  let fill2 = fill_of_edges n edges vals2 in
  let a2 = Sparse.of_fill ~n fill2 in
  let f2 = Sparse.refactor (Sparse.symbolic f0) a2 in
  let b = Array.init n (fun i -> Float.cos (float_of_int i)) in
  let x = Array.make n 0.0 in
  Sparse.solve_into f2 ~b ~x;
  let xd = Lu.solve (Lu.decompose (dense_of_fill n fill2)) b in
  Array.iteri
    (fun i v ->
      check_close ~tol:1e-12 (Printf.sprintf "refactor x.(%d)" i) v xd.(i))
    x;
  (* identical values: refactor must reproduce the original bits *)
  let f1 = Sparse.refactor (Sparse.symbolic f0) (Sparse.of_fill ~n fill) in
  let x0 = Array.make n 0.0 and x1 = Array.make n 0.0 in
  Sparse.solve_into f0 ~b ~x:x0;
  Sparse.solve_into f1 ~b ~x:x1;
  Array.iteri
    (fun i v ->
      if v <> x1.(i) then
        Alcotest.failf "refactor not bit-identical at %d: %.17g vs %.17g" i v
          x1.(i))
    x0

let test_sparse_singular () =
  let fill add =
    add 0 0 1.0;
    add 1 1 0.0;
    (* row/column 1 is exactly zero *)
    add 0 1 0.0;
    add 1 0 0.0
  in
  let a = Sparse.of_fill ~n:2 fill in
  Alcotest.check_raises "singular" Sparse.Singular (fun () ->
      ignore (Sparse.factor a))

let test_sparse_zero_diagonal_pivoting () =
  (* MNA-shaped: a voltage-source row with a structurally zero diagonal
     forces off-diagonal pivoting *)
  let fill add =
    add 0 0 1e-3;
    add 0 2 1.0;
    add 2 0 (-1.0);
    add 1 1 2.0;
    add 0 1 (-1e-3);
    add 1 0 (-1e-3)
  in
  let n = 3 in
  let f = Sparse.factor (Sparse.of_fill ~n fill) in
  let b = [| 1.0; 2.0; -0.5 |] in
  let x = Array.make n 0.0 in
  Sparse.solve_into f ~b ~x;
  let xd = Lu.solve (Lu.decompose (dense_of_fill n fill)) b in
  Array.iteri
    (fun i v -> check_close ~tol:1e-12 (Printf.sprintf "x.(%d)" i) v xd.(i))
    x

let test_csparse_vs_dense () =
  let n = 31 in
  let edges = random_pattern n 40 in
  let vals =
    List.map (fun _ -> Cx.make (0.25 +. rand_float ()) (rand_float ())) edges
  in
  let fill add =
    List.iteri
      (fun k (i, j) ->
        let v = List.nth vals k in
        add i j (Cx.neg v);
        add j i (Cx.neg v);
        add i i Cx.(v +: of_float 0.9);
        add j j Cx.(v +: of_float 0.9))
      edges
  in
  let a = Sparse.cof_fill ~n fill in
  let f = Sparse.cfactor a in
  let b = Array.init n (fun i -> Cx.make (Float.sin (float_of_int i)) 0.25) in
  let x = Array.make n Cx.zero in
  Sparse.csolve_into f ~b ~x;
  let m = Cmatrix.create n n in
  fill (fun i j v -> Cmatrix.add_to m i j v);
  let xd = Clu.solve (Clu.decompose m) b in
  Array.iteri
    (fun i v ->
      check_close ~tol:1e-12
        (Printf.sprintf "re x.(%d)" i)
        v.Cx.re xd.(i).Cx.re;
      check_close ~tol:1e-12
        (Printf.sprintf "im x.(%d)" i)
        v.Cx.im xd.(i).Cx.im)
    x;
  (* crefactor at shifted values *)
  let fill2 add =
    fill (fun i j v -> add i j (Cx.( *: ) (Cx.make 1.3 0.2) v))
  in
  let f2 = Sparse.crefactor (Sparse.csymbolic f) (Sparse.cof_fill ~n fill2) in
  let x2 = Array.make n Cx.zero in
  Sparse.csolve_into f2 ~b ~x:x2;
  let m2 = Cmatrix.create n n in
  fill2 (fun i j v -> Cmatrix.add_to m2 i j v);
  let xd2 = Clu.solve (Clu.decompose m2) b in
  Array.iteri
    (fun i v ->
      check_close ~tol:1e-12
        (Printf.sprintf "re2 x.(%d)" i)
        v.Cx.re xd2.(i).Cx.re;
      check_close ~tol:1e-12
        (Printf.sprintf "im2 x.(%d)" i)
        v.Cx.im xd2.(i).Cx.im)
    x2

(* ---------------- Mindeg ordering ---------------- *)

let grid_adjacency rows cols =
  let n = rows * cols in
  let adj = Array.make n [] in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let link a b = adj.(a) <- b :: adj.(a) in
      if c + 1 < cols then begin
        link (id r c) (id r (c + 1));
        link (id r (c + 1)) (id r c)
      end;
      if r + 1 < rows then begin
        link (id r c) (id (r + 1) c);
        link (id (r + 1) c) (id r c)
      end
    done
  done;
  adj

let test_mindeg_is_permutation () =
  List.iter
    (fun adj ->
      let n = Array.length adj in
      let r = Mindeg.order adj in
      let seen = Array.make n false in
      Array.iter
        (fun p ->
          Alcotest.(check bool) "in range" true (p >= 0 && p < n);
          Alcotest.(check bool) "no duplicate" false seen.(p);
          seen.(p) <- true)
        r.Mindeg.perm;
      Alcotest.(check bool) "fill >= n" true (r.Mindeg.fill >= float_of_int n))
    [
      grid_adjacency 7 9;
      Array.make 5 [];
      (* disconnected, no edges *)
      [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |];
    ]

let test_mindeg_beats_band_on_grid () =
  (* the point of the ordering: on a 2-D grid the predicted fill must
     be far below what the banded kernel stores (n * bandwidth) *)
  let rows = 24 and cols = 24 in
  let adj = grid_adjacency rows cols in
  let n = rows * cols in
  let r = Mindeg.order adj in
  let rcm = Rcm.permutation adj in
  let bw = Rcm.bandwidth adj rcm in
  let banded_storage = float_of_int (n * bw) in
  Alcotest.(check bool)
    (Printf.sprintf "fill %.0f << banded %.0f" r.Mindeg.fill banded_storage)
    true
    (r.Mindeg.fill < 0.5 *. banded_storage)

let test_mindeg_deterministic () =
  let adj = grid_adjacency 11 13 in
  let a = Mindeg.order adj and b = Mindeg.order adj in
  Alcotest.(check bool) "same perm" true (a.Mindeg.perm = b.Mindeg.perm)

(* ---------------- Rcm at scale ---------------- *)

let test_rcm_large_disconnected () =
  (* 10^5 nodes in 10^4 disconnected chains: the restart scan used to
     rescan all visited vertices per component (quadratic over the
     whole suite of components), which turns this case from
     milliseconds into minutes *)
  let n = 100_000 in
  let chain = 10 in
  let adj =
    Array.init n (fun i ->
        let first = i mod chain = 0 and last = i mod chain = chain - 1 in
        if first then [ i + 1 ]
        else if last then [ i - 1 ]
        else [ i - 1; i + 1 ])
  in
  let t0 = Sys.time () in
  let perm = Rcm.permutation adj in
  let elapsed = Sys.time () -. t0 in
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in range" true (p >= 0 && p < n);
      Alcotest.(check bool) "no duplicate" false seen.(p);
      seen.(p) <- true)
    perm;
  (* each chain reorders contiguously, so the band stays that of one
     chain *)
  Alcotest.(check bool) "bandwidth stays chain-local" true
    (Rcm.bandwidth adj perm <= chain);
  if elapsed > 10.0 then
    Alcotest.failf "quadratic restart scan is back: %.1f s for 1e5 nodes"
      elapsed

(* ---------------- Solver plan and backend agreement ---------------- *)

let test_plan_grid_not_banded () =
  (* the grid-blind heuristic used to accept any band <= n/3, sending a
     32x32 mesh (band ~ 32) to the O(n * b^2) banded kernel *)
  let p = Solver.plan (grid_adjacency 32 32) in
  Alcotest.(check bool) "not banded" false
    (p.Solver.choice = Solver.Banded_lu);
  Alcotest.(check bool) "sparse chosen" true
    (p.Solver.choice = Solver.Sparse_lu)

let test_plan_ladder_stays_banded () =
  (* chain structure must keep the historical decision bit-for-bit *)
  let n = 200 in
  let adj =
    Array.init n (fun i ->
        if i = 0 then [ 1 ]
        else if i = n - 1 then [ n - 2 ]
        else [ i - 1; i + 1 ])
  in
  let p = Solver.plan adj in
  Alcotest.(check bool) "banded chosen" true
    (p.Solver.choice = Solver.Banded_lu)

let edges_of_adjacency adj =
  let edges = ref [] in
  Array.iteri
    (fun i ns -> List.iter (fun j -> if i < j then edges := (i, j) :: !edges) ns)
    adj;
  List.rev !edges

let test_solver_backends_agree () =
  let adj = grid_adjacency 9 7 in
  let n = Array.length adj in
  let edges = edges_of_adjacency adj in
  let vals = List.map (fun _ -> 0.25 +. rand_float ()) edges in
  let fill = fill_of_edges n edges vals in
  let b = Array.init n (fun i -> Float.sin (float_of_int (3 * i))) in
  let solve backend =
    let p = Solver.plan ~backend adj in
    Solver.solve p (Solver.factor p ~fill) b
  in
  let xd = solve Solver.Dense in
  List.iter
    (fun (name, backend) ->
      let x = solve backend in
      Array.iteri
        (fun i v ->
          check_close ~tol:1e-12 (Printf.sprintf "%s x.(%d)" name i) v xd.(i))
        x)
    [ ("banded", Solver.Banded); ("sparse", Solver.Sparse); ("auto", Solver.Auto) ]

let test_solver_symbolic_reuse () =
  let adj = grid_adjacency 8 8 in
  let n = Array.length adj in
  let edges = edges_of_adjacency adj in
  let vals = List.map (fun _ -> 0.25 +. rand_float ()) edges in
  let vals2 = List.map (fun v -> (0.8 *. v) +. 0.3) vals in
  let p = Solver.plan ~backend:Solver.Sparse adj in
  let f0 = Solver.factor p ~fill:(fill_of_edges n edges vals) in
  let sym = Solver.symbolic_of f0 in
  Alcotest.(check bool) "sparse factor has a symbolic" true (sym <> None);
  let fill2 = fill_of_edges n edges vals2 in
  let f2 = Solver.factor ?symbolic:sym p ~fill:fill2 in
  let b = Array.init n (fun i -> Float.cos (float_of_int i)) in
  let x = Solver.solve p f2 b in
  let xd = Lu.solve (Lu.decompose (dense_of_fill n fill2)) b in
  Array.iteri
    (fun i v ->
      check_close ~tol:1e-12 (Printf.sprintf "reuse x.(%d)" i) v xd.(i))
    x

(* ---------------- PDN grid workload ---------------- *)

open Rlc_circuit

let test_pdn_plan_sparse () =
  let pdn = Pdn.build (Pdn.rc_grid ~rows:32 ~cols:32 ()) in
  let plan = pdn.Pdn.asm.Assembly.plan in
  Alcotest.(check bool) "32x32 PDN routes to sparse" true
    (plan.Solver.choice = Solver.Sparse_lu);
  Alcotest.(check bool) "size >= grid" true (Pdn.size pdn >= 32 * 32)

let test_pdn_dc () =
  let pdn = Pdn.build Pdn.default in
  let v = Dc.operating_point pdn.Pdn.netlist in
  let vdd = Pdn.default.Pdn.vdd in
  let v_at r c = v.(Pdn.node pdn ~row:r ~col:c) in
  (* loaded: every node sits below vdd, the loaded centre lowest *)
  for r = 0 to 11 do
    for c = 0 to 11 do
      Alcotest.(check bool) "below vdd" true (v_at r c < vdd);
      Alcotest.(check bool) "above 0" true (v_at r c > 0.0);
      Alcotest.(check bool) "centre droops most" true (v_at 5 5 <= v_at r c)
    done
  done;
  (* unloaded: the grid floats at exactly vdd *)
  let quiet = Pdn.build { Pdn.default with Pdn.loads = [] } in
  let vq = Dc.operating_point quiet.Pdn.netlist in
  for r = 0 to 11 do
    for c = 0 to 11 do
      check_close ~tol:1e-9
        (Printf.sprintf "quiet v(%d,%d)" r c)
        vdd
        vq.(Pdn.node quiet ~row:r ~col:c)
    done
  done

let test_pdn_impedance () =
  let pdn = Pdn.build Pdn.default in
  let freqs = Ac.decade_grid ~points_per_decade:3 ~fstart:1e5 ~fstop:1e9 in
  let z = Pdn.impedance pdn ~at:(5, 5) ~freqs in
  Alcotest.(check int) "one point per frequency" (Array.length freqs)
    (Array.length z);
  (* at 100 kHz the decap is invisible: |Z| equals the DC droop per amp *)
  let v = Dc.operating_point pdn.Pdn.netlist in
  let quiet = Pdn.build { Pdn.default with Pdn.loads = [] } in
  let vq = Dc.operating_point quiet.Pdn.netlist in
  let node = Pdn.node pdn ~row:5 ~col:5 in
  let r_dc = vq.(node) -. v.(node) in
  let _, z0 = z.(0) in
  check_close ~tol:1e-3 "low-frequency |Z| = DC resistance" r_dc z0;
  (* the dense backend must see the same impedance *)
  let zd = Pdn.impedance ~backend:Solver.Dense pdn ~at:(5, 5) ~freqs in
  Array.iteri
    (fun i (f, zi) ->
      let fd, zdi = zd.(i) in
      Alcotest.(check (float 0.0)) "same grid" f fd;
      check_close ~tol:1e-9 (Printf.sprintf "|Z|(%g)" f) zi zdi)
    z

(* A transient on a sparse-routed mesh must analyze the pattern once
   and refactor for every subsequent value-only restamp (here: the
   integration-scheme switch after the backward-Euler first step), and
   the Auto-picked sparse path must reproduce the banded kernel's
   waveform. *)
let test_pdn_transient_symbolic_reuse () =
  let pdn = Pdn.build (Pdn.rc_grid ~rows:24 ~cols:24 ()) in
  let plan = pdn.Pdn.asm.Assembly.plan in
  Alcotest.(check bool) "24x24 routes to sparse" true
    (plan.Solver.choice = Solver.Sparse_lu);
  let c_analyze = Rlc_instr.Metrics.counter "solver.sparse.analyze" in
  let c_refactor = Rlc_instr.Metrics.counter "solver.sparse.refactor" in
  let c_repivot = Rlc_instr.Metrics.counter "solver.sparse.repivot" in
  let was = Rlc_instr.Control.enabled () in
  Rlc_instr.Control.set_enabled true;
  let a0 = Rlc_instr.Metrics.value c_analyze in
  let f0 = Rlc_instr.Metrics.value c_refactor in
  let p0 = Rlc_instr.Metrics.value c_repivot in
  let probe = Transient.Node_v (Pdn.node pdn ~row:12 ~col:12) in
  let run backend =
    Transient.simulate
      ~config:{ Transient.Config.default with backend }
      pdn.Pdn.netlist ~t_end:5e-9 ~dt:5e-11
      ~probes:[ probe ]
  in
  let va = Transient.final_voltages (run Transient.Auto) in
  let analyzed = Rlc_instr.Metrics.value c_analyze -. a0 in
  let refactored = Rlc_instr.Metrics.value c_refactor -. f0 in
  let repivoted = Rlc_instr.Metrics.value c_repivot -. p0 in
  Rlc_instr.Control.set_enabled was;
  Alcotest.(check (float 0.0)) "one symbolic analysis" 1.0 analyzed;
  Alcotest.(check bool) "restamps reuse it as refactors" true
    (refactored >= 1.0);
  Alcotest.(check (float 0.0)) "no pivot-order repair needed" 0.0 repivoted;
  let vb = Transient.final_voltages (run Transient.Banded) in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "unknown %d agrees with banded" i)
        true
        (Float.abs (a -. vb.(i)) <= 1e-9 *. (1.0 +. Float.abs a)))
    va

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "sparse"
    [
      ( "kernel",
        [
          Alcotest.test_case "sparse vs dense" `Quick test_sparse_vs_dense;
          Alcotest.test_case "refactor" `Quick test_sparse_refactor;
          Alcotest.test_case "singular" `Quick test_sparse_singular;
          Alcotest.test_case "zero-diagonal pivoting" `Quick
            test_sparse_zero_diagonal_pivoting;
          Alcotest.test_case "complex vs dense" `Quick test_csparse_vs_dense;
        ] );
      ( "mindeg",
        [
          Alcotest.test_case "permutation" `Quick test_mindeg_is_permutation;
          Alcotest.test_case "beats banded on grid" `Quick
            test_mindeg_beats_band_on_grid;
          Alcotest.test_case "deterministic" `Quick test_mindeg_deterministic;
        ] );
      ( "rcm",
        [
          Alcotest.test_case "1e5-node disconnected graph" `Quick
            test_rcm_large_disconnected;
        ] );
      ( "plan",
        [
          Alcotest.test_case "grid is not banded" `Quick
            test_plan_grid_not_banded;
          Alcotest.test_case "ladder stays banded" `Quick
            test_plan_ladder_stays_banded;
          Alcotest.test_case "backends agree" `Quick test_solver_backends_agree;
          Alcotest.test_case "symbolic reuse" `Quick test_solver_symbolic_reuse;
        ] );
      ( "pdn",
        [
          Alcotest.test_case "plan routes to sparse" `Quick test_pdn_plan_sparse;
          Alcotest.test_case "dc droop" `Quick test_pdn_dc;
          Alcotest.test_case "impedance scan" `Quick test_pdn_impedance;
          Alcotest.test_case "transient symbolic reuse" `Quick
            test_pdn_transient_symbolic_reuse;
        ] );
    ]
