(* Tests for rlc_numerics: complex helpers, matrices, LU, root finding,
   Newton, Nelder-Mead, polynomials, interpolation, quadrature,
   statistics, finite differences and the Talbot inverse Laplace. *)

open Rlc_numerics
open Approx

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Cx ---------------- *)

let test_cx_ops () =
  let open Cx in
  let a = make 1.0 2.0 and b = make 3.0 (-1.0) in
  check_float "add re" 4.0 (re (a +: b));
  check_float "add im" 1.0 (im (a +: b));
  check_float "sub re" (-2.0) (re (a -: b));
  check_float "mul re" 5.0 (re (a *: b));
  check_float "mul im" 5.0 (im (a *: b));
  let q = a /: b in
  let back = q *: b in
  check_close "div roundtrip re" 1.0 (re back);
  check_close "div roundtrip im" 2.0 (im back)

let test_cx_sqrt_exp () =
  let open Cx in
  let z = make (-4.0) 0.0 in
  let r = sqrt z in
  check_close "sqrt(-4) re" 0.0 (re r) ~tol:1e-12;
  check_close "sqrt(-4) im" 2.0 (im r);
  (* Euler: e^{i pi} = -1 *)
  let e = exp (make 0.0 Float.pi) in
  check_close "euler re" (-1.0) (re e);
  check_close "euler im" 0.0 (im e) ~tol:1e-12

let test_cx_is_real () =
  Alcotest.(check bool) "real" true (Cx.is_real (Cx.of_float 3.0));
  Alcotest.(check bool) "not real" false (Cx.is_real (Cx.make 1.0 1.0));
  Alcotest.(check bool)
    "almost real" true
    (Cx.is_real ~tol:1e-6 (Cx.make 1.0 1e-8));
  check_float "checked" 3.0 (Cx.real_part_checked (Cx.of_float 3.0));
  Alcotest.check_raises "raises on complex"
    (Invalid_argument "Cx.real_part_checked: 1 + 1i is not real") (fun () ->
      ignore (Cx.real_part_checked (Cx.make 1.0 1.0)))

let test_cx_finite () =
  Alcotest.(check bool) "finite" true (Cx.is_finite (Cx.make 1.0 2.0));
  Alcotest.(check bool) "inf" false (Cx.is_finite (Cx.make infinity 0.0));
  Alcotest.(check bool) "nan" false (Cx.is_finite (Cx.make 0.0 nan))

(* ---------------- Matrix ---------------- *)

let test_matrix_basic () =
  let m = Matrix.create 2 3 in
  Alcotest.(check int) "rows" 2 (Matrix.rows m);
  Alcotest.(check int) "cols" 3 (Matrix.cols m);
  Matrix.set m 1 2 5.0;
  check_float "get" 5.0 (Matrix.get m 1 2);
  Matrix.add_to m 1 2 2.5;
  check_float "add_to" 7.5 (Matrix.get m 1 2);
  Alcotest.check_raises "oob"
    (Invalid_argument "Matrix: index (2,0) out of 2x3") (fun () ->
      ignore (Matrix.get m 2 0))

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1);
  let v = Matrix.mul_vec a [| 1.0; 1.0 |] in
  check_float "mv0" 3.0 v.(0);
  check_float "mv1" 7.0 v.(1)

let test_matrix_identity_transpose () =
  let i3 = Matrix.identity 3 in
  let a =
    Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 7.0; 8.0; 10.0 |] |]
  in
  Alcotest.(check bool) "I*A = A" true (Matrix.equal (Matrix.mul i3 a) a);
  let t = Matrix.transpose a in
  check_float "t(0,1)" 4.0 (Matrix.get t 0 1);
  Alcotest.(check bool)
    "transpose involutive" true
    (Matrix.equal (Matrix.transpose t) a)

let test_matrix_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged")
    (fun () -> ignore (Matrix.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---------------- Lu ---------------- *)

let test_lu_solve () =
  let a =
    Matrix.of_arrays [| [| 2.0; 1.0; 1.0 |]; [| 1.0; 3.0; 2.0 |]; [| 1.0; 0.0; 0.0 |] |]
  in
  let x = Lu.solve_matrix a [| 4.0; 5.0; 6.0 |] in
  (* known solution x = (6, 15, -23) *)
  check_close "x0" 6.0 x.(0);
  check_close "x1" 15.0 x.(1);
  check_close "x2" (-23.0) x.(2)

let test_lu_det_inverse () =
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  let f = Lu.decompose a in
  check_close "det" (-6.0) (Lu.det f);
  let inv = Lu.inverse f in
  let prod = Matrix.mul a inv in
  Alcotest.(check bool)
    "A * inv(A) = I" true
    (Matrix.equal ~tol:1e-12 prod (Matrix.identity 2))

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Lu.decompose a))

let test_lu_pivoting () =
  (* zero top-left pivot forces a row swap *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_matrix a [| 2.0; 3.0 |] in
  check_close "x0" 3.0 x.(0);
  check_close "x1" 2.0 x.(1)

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"lu: A x = b solved correctly" ~count:200
    QCheck2.Gen.(
      let entry = float_range (-10.0) 10.0 in
      array_size (return 9) entry)
    (fun flat ->
      let a =
        Matrix.of_arrays
          [|
            [| flat.(0) +. 20.0; flat.(1); flat.(2) |];
            [| flat.(3); flat.(4) +. 20.0; flat.(5) |];
            [| flat.(6); flat.(7); flat.(8) +. 20.0 |];
          |]
        (* diagonally dominant => nonsingular *)
      in
      let b = [| flat.(0); flat.(4); flat.(8) |] in
      let x = Lu.solve_matrix a b in
      let r = Matrix.mul_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) r b)

(* ---------------- Banded ---------------- *)

let test_banded_storage () =
  let s = Banded.create_storage ~n:5 ~kl:1 ~ku:2 in
  Banded.set s 2 1 4.0;
  Banded.add_to s 2 1 0.5;
  check_float "in-band entry" 4.5 (Banded.get s 2 1);
  check_float "outside band reads 0" 0.0 (Banded.get s 4 0);
  Alcotest.check_raises "write outside band"
    (Invalid_argument "Banded: (4,0) outside band (kl=1, ku=2)") (fun () ->
      Banded.set s 4 0 1.0);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Banded: index (5,0) out of 5x5") (fun () ->
      ignore (Banded.get s 5 0));
  let d = Banded.to_dense s in
  check_float "round-trip to dense" 4.5 (Matrix.get d 2 1);
  check_float "dense zero" 0.0 (Matrix.get d 0 3)

let test_banded_bandwidth () =
  let tri =
    Matrix.of_arrays
      [|
        [| 2.0; -1.0; 0.0; 0.0 |];
        [| -1.0; 2.0; -1.0; 0.0 |];
        [| 0.0; -1.0; 2.0; -1.0 |];
        [| 0.0; 0.0; -1.0; 2.0 |];
      |]
  in
  Alcotest.(check (pair int int)) "tridiagonal" (1, 1) (Banded.bandwidth tri);
  Alcotest.(check (pair int int)) "diagonal" (0, 0)
    (Banded.bandwidth (Matrix.identity 3));
  let skew = Matrix.create 4 4 in
  Matrix.set skew 3 0 1.0;
  Matrix.set skew 0 1 1.0;
  for i = 0 to 3 do Matrix.set skew i i 1.0 done;
  Alcotest.(check (pair int int)) "asymmetric" (3, 1) (Banded.bandwidth skew)

(* deterministic LCG so failures reproduce *)
let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    (float_of_int !s /. float_of_int 0x3FFFFFFF) -. 0.5

let random_banded rand n kl ku =
  let a = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = Int.max 0 (i - kl) to Int.min (n - 1) (i + ku) do
      Matrix.set a i j (rand ())
    done;
    (* diagonal dominance => nonsingular *)
    Matrix.add_to a i i (2.0 *. float_of_int (kl + ku + 1))
  done;
  a

let test_banded_vs_dense_random () =
  let rand = lcg 20260806 in
  List.iter
    (fun (n, kl, ku) ->
      let a = random_banded rand n kl ku in
      let b = Array.init n (fun _ -> rand ()) in
      let xd = Lu.solve (Lu.decompose a) b in
      let f = Banded.decompose (Banded.of_matrix a) in
      Alcotest.(check int) "size" n (Banded.size f);
      let xb = Banded.solve f b in
      Array.iteri
        (fun i v ->
          check_close (Printf.sprintf "n=%d kl=%d ku=%d x%d" n kl ku i) v
            xb.(i) ~tol:1e-10)
        xd)
    [ (1, 0, 0); (4, 1, 1); (7, 2, 1); (12, 1, 3); (25, 2, 2); (40, 3, 3) ]

let test_banded_pivoting () =
  (* dominant subdiagonal: partial pivoting must swap on every column *)
  let n = 8 in
  let a = Matrix.create n n in
  for i = 0 to n - 1 do
    Matrix.set a i i 0.1;
    if i > 0 then Matrix.set a i (i - 1) 5.0;
    if i < n - 1 then Matrix.set a i (i + 1) 1.0
  done;
  let b = Array.init n (fun i -> float_of_int (i + 1)) in
  let xd = Lu.solve (Lu.decompose a) b in
  let xb = Banded.solve (Banded.decompose (Banded.of_matrix a)) b in
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "x%d" i) v xb.(i) ~tol:1e-10)
    xd;
  (* in-place solve aliasing b and x *)
  let f = Banded.decompose (Banded.of_matrix a) in
  Banded.solve_into f ~b ~x:b;
  Array.iteri
    (fun i v -> check_close (Printf.sprintf "aliased x%d" i) v b.(i) ~tol:1e-10)
    xd

let test_banded_singular () =
  let s = Banded.create_storage ~n:3 ~kl:1 ~ku:1 in
  (* column 1 identically zero *)
  Banded.set s 0 0 1.0;
  Banded.set s 2 2 1.0;
  Banded.set s 2 1 0.0;
  Alcotest.check_raises "singular" Banded.Singular (fun () ->
      ignore (Banded.decompose s))

let test_banded_of_matrix_rejects_tight_band () =
  let a = random_banded (lcg 7) 6 2 2 in
  Alcotest.check_raises "band too narrow"
    (Invalid_argument "Banded.of_matrix: nonzero outside the requested band")
    (fun () -> ignore (Banded.of_matrix ~kl:1 ~ku:1 a))

let prop_banded_roundtrip =
  QCheck2.Test.make ~name:"banded: A x = b solved correctly" ~count:200
    QCheck2.Gen.(
      triple (int_range 2 30) (int_range 0 3) (int_range 0 3))
    (fun (n, kl0, ku0) ->
      let kl = Int.min kl0 (n - 1) and ku = Int.min ku0 (n - 1) in
      let rand = lcg ((n * 1000) + (kl * 10) + ku) in
      let a = random_banded rand n kl ku in
      let b = Array.init n (fun _ -> rand ()) in
      let x = Banded.solve (Banded.decompose (Banded.of_matrix a)) b in
      let r = Matrix.mul_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) r b)

(* ---------------- Cbanded ---------------- *)

let random_cbanded rand n kl ku =
  let a = Cmatrix.create n n in
  for i = 0 to n - 1 do
    for j = Int.max 0 (i - kl) to Int.min (n - 1) (i + ku) do
      Cmatrix.set a i j (Cx.make (rand ()) (rand ()))
    done;
    Cmatrix.add_to a i i (Cx.of_float (2.0 *. float_of_int (kl + ku + 1)))
  done;
  a

let cbanded_of_cmatrix ~kl ~ku a =
  let n = Cmatrix.rows a in
  let s = Cbanded.create_storage ~n ~kl ~ku in
  for i = 0 to n - 1 do
    for j = Int.max 0 (i - kl) to Int.min (n - 1) (i + ku) do
      Cbanded.set s i j (Cmatrix.get a i j)
    done
  done;
  s

let check_cx msg expected actual =
  check_close (msg ^ " re") (Cx.re expected) (Cx.re actual) ~tol:1e-10;
  check_close (msg ^ " im") (Cx.im expected) (Cx.im actual) ~tol:1e-10

let test_cbanded_storage () =
  let s = Cbanded.create_storage ~n:5 ~kl:1 ~ku:2 in
  Cbanded.set s 2 1 (Cx.make 4.0 1.0);
  Cbanded.add_to s 2 1 (Cx.make 0.5 (-0.5));
  check_cx "in-band entry" (Cx.make 4.5 0.5) (Cbanded.get s 2 1);
  check_cx "outside band reads 0" Cx.zero (Cbanded.get s 4 0);
  Alcotest.check_raises "outside band write"
    (Invalid_argument "Cbanded: (4,0) outside band (kl=1, ku=2)") (fun () ->
      Cbanded.set s 4 0 Cx.one);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cbanded: index (5,0) out of 5x5") (fun () ->
      ignore (Cbanded.get s 5 0));
  let d = Cbanded.to_dense s in
  check_cx "dense round-trip" (Cx.make 4.5 0.5) (Cmatrix.get d 2 1)

let test_cbanded_vs_clu_random () =
  let rand = lcg 20260807 in
  List.iter
    (fun (n, kl, ku) ->
      let a = random_cbanded rand n kl ku in
      let b = Array.init n (fun _ -> Cx.make (rand ()) (rand ())) in
      let xd = Clu.solve (Clu.decompose a) b in
      let f = Cbanded.decompose (cbanded_of_cmatrix ~kl ~ku a) in
      Alcotest.(check int) "size" n (Cbanded.size f);
      let xb = Cbanded.solve f b in
      Array.iteri
        (fun i v ->
          check_cx (Printf.sprintf "n=%d kl=%d ku=%d x%d" n kl ku i) v xb.(i))
        xd)
    [ (1, 0, 0); (4, 1, 1); (7, 2, 1); (12, 1, 3); (25, 2, 2); (40, 3, 3) ]

let test_cbanded_pivoting () =
  (* dominant subdiagonal: partial pivoting must swap on every column *)
  let n = 8 in
  let a = Cmatrix.create n n in
  for i = 0 to n - 1 do
    Cmatrix.set a i i (Cx.make 0.1 0.05);
    if i > 0 then Cmatrix.set a i (i - 1) (Cx.make 5.0 (-2.0));
    if i < n - 1 then Cmatrix.set a i (i + 1) (Cx.make 1.0 0.5)
  done;
  let b = Array.init n (fun i -> Cx.make (float_of_int (i + 1)) 1.0) in
  let xd = Clu.solve (Clu.decompose a) b in
  let xb =
    Cbanded.solve (Cbanded.decompose (cbanded_of_cmatrix ~kl:1 ~ku:1 a)) b
  in
  Array.iteri (fun i v -> check_cx (Printf.sprintf "x%d" i) v xb.(i)) xd

let test_cbanded_singular () =
  let s = Cbanded.create_storage ~n:3 ~kl:1 ~ku:1 in
  Cbanded.set s 0 0 Cx.one;
  Cbanded.set s 2 2 Cx.one;
  Alcotest.check_raises "singular" Cbanded.Singular (fun () ->
      ignore (Cbanded.decompose s))

(* ---------------- Solver ---------------- *)

let tridiag_adjacency n =
  Array.init n (fun i ->
      List.filter (fun j -> j >= 0 && j < n) [ i - 1; i + 1 ])

let test_solver_plan () =
  let banded p = p.Solver.choice = Solver.Banded_lu in
  let small = Solver.plan (tridiag_adjacency 5) in
  Alcotest.(check bool) "small system stays dense" false (banded small);
  let big = Solver.plan (tridiag_adjacency 30) in
  Alcotest.(check bool) "ladder goes banded" true (banded big);
  Alcotest.(check bool) "narrow band" true (big.Solver.kl + big.Solver.ku <= 4);
  let forced = Solver.plan ~backend:Solver.Dense (tridiag_adjacency 30) in
  Alcotest.(check bool) "Dense override" false (banded forced);
  let forced_b = Solver.plan ~backend:Solver.Banded (tridiag_adjacency 5) in
  Alcotest.(check bool) "Banded override" true (banded forced_b);
  Alcotest.(check bool) "banded_pays heuristic" true
    (Solver.banded_pays ~n:30 ~kl:2 ~ku:2
    && not (Solver.banded_pays ~n:8 ~kl:1 ~ku:1))

(* factor/solve under both backends against a dense Lu oracle, filling
   through natural indices *)
let test_solver_factor_solve () =
  let rand = lcg 31337 in
  let n = 20 in
  let a = random_banded rand n 2 2 in
  let adj =
    Array.init n (fun i ->
        List.filter
          (fun j -> j >= 0 && j < n && j <> i)
          (List.init 5 (fun k -> i - 2 + k)))
  in
  let b = Array.init n (fun _ -> rand ()) in
  let fill add =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let v = Matrix.get a i j in
        if v <> 0.0 then add i j v
      done
    done
  in
  let oracle = Lu.solve (Lu.decompose (Matrix.copy a)) b in
  List.iter
    (fun backend ->
      let p = Solver.plan ~backend adj in
      let f = Solver.factor p ~fill in
      let x = Solver.solve p f b in
      Array.iteri
        (fun i v -> check_close (Printf.sprintf "x%d" i) v x.(i) ~tol:1e-10)
        oracle)
    [ Solver.Dense; Solver.Banded; Solver.Sparse; Solver.Auto ]

let test_solver_cfactor_csolve () =
  let rand = lcg 4242 in
  let n = 20 in
  let a = random_cbanded rand n 2 2 in
  let adj =
    Array.init n (fun i ->
        List.filter
          (fun j -> j >= 0 && j < n && j <> i)
          (List.init 5 (fun k -> i - 2 + k)))
  in
  let b = Array.init n (fun _ -> Cx.make (rand ()) (rand ())) in
  let fill add =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let v = Cmatrix.get a i j in
        if Cx.norm v <> 0.0 then add i j v
      done
    done
  in
  let oracle = Clu.solve (Clu.decompose a) b in
  List.iter
    (fun backend ->
      let p = Solver.plan ~backend adj in
      let f = Solver.cfactor p ~fill in
      let x = Solver.csolve p f b in
      Array.iteri
        (fun i v -> check_cx (Printf.sprintf "x%d" i) v x.(i))
        oracle)
    [ Solver.Dense; Solver.Banded; Solver.Sparse; Solver.Auto ]

(* ---------------- Roots ---------------- *)

let test_bisect () =
  let f x = (x *. x) -. 2.0 in
  check_close "sqrt2" (Float.sqrt 2.0) (Roots.bisect f 0.0 2.0)

let test_brent () =
  let f x = cos x -. x in
  check_close "dottie" 0.7390851332151607 (Roots.brent f 0.0 1.0)

let test_brent_no_bracket () =
  Alcotest.check_raises "no bracket" Roots.No_bracket (fun () ->
      ignore (Roots.brent (fun x -> (x *. x) +. 1.0) (-1.0) 1.0))

let test_newton () =
  let f x = (x *. x *. x) -. 8.0 in
  let df x = 3.0 *. x *. x in
  check_close "cbrt8" 2.0 (Roots.newton ~f ~df 3.0)

(* Each trial point is evaluated once, and the accepted point's residual
   is carried into the next iteration instead of being evaluated again:
   f runs once per iteration (df's count), once at x0, and once per
   rejected trial.  From 1.5, atan's first step overshoots and is halved
   once. *)
let test_newton_evaluates_each_point_once () =
  List.iter
    (fun (name, f, df, x0, root, rejected) ->
      let f_calls = ref 0 and df_calls = ref 0 in
      let counted g calls x =
        incr calls;
        g x
      in
      check_close name root
        (Roots.newton ~f:(counted f f_calls) ~df:(counted df df_calls) x0)
        ~tol:1e-9;
      Alcotest.(check int)
        (name ^ ": residual evaluations")
        (!df_calls + 1 + rejected) !f_calls)
    [
      ( "cbrt8",
        (fun x -> (x *. x *. x) -. 8.0),
        (fun x -> 3.0 *. x *. x),
        3.0, 2.0, 0 );
      ("atan", Float.atan, (fun x -> 1.0 /. (1.0 +. (x *. x))), 1.5, 0.0, 1);
    ]

let test_newton_bracketed () =
  (* pathological: newton from midpoint diverges without the bracket *)
  let f x = Float.atan x in
  let df x = 1.0 /. (1.0 +. (x *. x)) in
  check_close "atan root" 0.0 (Roots.newton_bracketed ~f ~df (-5.0) 8.0)
    ~tol:1e-9

let test_bracket_first () =
  let f t = Float.sin t -. 0.5 in
  let lo, hi = Roots.bracket_first f ~t0:0.0 ~dt:0.1 in
  let root = Roots.brent f lo hi in
  check_close "first crossing" (Float.pi /. 6.0) root ~tol:1e-9

let prop_brent_finds_root =
  QCheck2.Test.make ~name:"brent: f(root) ~ 0 for random cubics" ~count:200
    QCheck2.Gen.(triple (float_range (-3.0) 3.0) (float_range (-3.0) 3.0)
                   (float_range 0.5 3.0))
    (fun (a, b, c) ->
      (* cubic x^3 + a x^2 + b x - c^3 has a real root; bracket it *)
      let f x = (x ** 3.0) +. (a *. x *. x) +. (b *. x) -. (c ** 3.0) in
      let hi =
        1.0 +. Float.abs a +. Float.abs b +. Float.abs (c ** 3.0)
      in
      let root = Roots.brent f (-.hi) hi in
      Float.abs (f root) < 1e-6 *. (1.0 +. (hi ** 3.0)))

(* ---------------- Newton (multi-dim) ---------------- *)

let test_newton2d () =
  (* intersection of circle x^2+y^2=4 and line y=x: (sqrt2, sqrt2) *)
  let f x = [| (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) -. 4.0; x.(1) -. x.(0) |] in
  let r = Newton.solve_ctx ~ctx:() ~f:(fun () -> f) ~x0:[| 1.0; 0.5 |] () in
  Alcotest.(check bool) "converged" true r.Newton.converged;
  check_close "x" (Float.sqrt 2.0) r.Newton.x.(0) ~tol:1e-7;
  check_close "y" (Float.sqrt 2.0) r.Newton.x.(1) ~tol:1e-7

let test_newton2d_bounds () =
  (* same system but clamped away from the negative branch *)
  let f x = [| (x.(0) *. x.(0)) -. 4.0; x.(1) -. 1.0 |] in
  let r =
    Newton.solve_ctx ~lower:[| 0.1; 0.1 |] ~ctx:() ~f:(fun () -> f)
      ~x0:[| 0.5; 0.5 |] ()
  in
  Alcotest.(check bool) "converged" true r.Newton.converged;
  check_close "positive root" 2.0 r.Newton.x.(0) ~tol:1e-7

let test_newton_analytic_jacobian () =
  let f x = [| Float.exp x.(0) -. 2.0 |] in
  let jacobian x = Matrix.of_arrays [| [| Float.exp x.(0) |] |] in
  let r =
    Newton.solve_ctx ~jacobian:(fun () -> jacobian) ~ctx:() ~f:(fun () -> f)
      ~x0:[| 0.0 |] ()
  in
  check_close "ln 2" (Float.log 2.0) r.Newton.x.(0) ~tol:1e-9

(* ---------------- Nelder-Mead ---------------- *)

let test_nelder_mead_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r =
    Nelder_mead.minimize_ctx ~max_iter:5000 ~ctx:() ~f:(fun () -> f)
      ~x0:[| -1.2; 1.0 |] ()
  in
  check_close "x" 1.0 r.Nelder_mead.x.(0) ~tol:1e-4;
  check_close "y" 1.0 r.Nelder_mead.x.(1) ~tol:1e-4

let test_nelder_mead_rejects_nan_region () =
  (* objective undefined (nan) for x < 0; minimum at x = 1 *)
  let f x = if x.(0) < 0.0 then nan else (x.(0) -. 1.0) ** 2.0 in
  let r = Nelder_mead.minimize_ctx ~ctx:() ~f:(fun () -> f) ~x0:[| 0.5 |] () in
  check_close "min" 1.0 r.Nelder_mead.x.(0) ~tol:1e-5

let prop_nelder_mead_quadratic =
  QCheck2.Test.make ~name:"nelder-mead: finds quadratic bowl minimum"
    ~count:100
    QCheck2.Gen.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (cx, cy) ->
      let f x = ((x.(0) -. cx) ** 2.0) +. (2.0 *. ((x.(1) -. cy) ** 2.0)) in
      let r =
        Nelder_mead.minimize_ctx ~ctx:() ~f:(fun () -> f) ~x0:[| 0.0; 0.0 |] ()
      in
      Float.abs (r.Nelder_mead.x.(0) -. cx) < 1e-3
      && Float.abs (r.Nelder_mead.x.(1) -. cy) < 1e-3)

(* ---------------- Polynomial ---------------- *)

let test_poly_eval () =
  let p = Polynomial.of_coeffs [| 1.0; -3.0; 2.0 |] in
  (* 1 - 3x + 2x^2 *)
  check_float "p(0)" 1.0 (Polynomial.eval p 0.0);
  check_float "p(1)" 0.0 (Polynomial.eval p 1.0);
  check_float "p(2)" 3.0 (Polynomial.eval p 2.0);
  Alcotest.(check int) "degree" 2 (Polynomial.degree p)

let test_poly_trim_zero () =
  let p = Polynomial.of_coeffs [| 1.0; 2.0; 0.0; 0.0 |] in
  Alcotest.(check int) "trimmed degree" 1 (Polynomial.degree p);
  let z = Polynomial.of_coeffs [| 0.0; 0.0 |] in
  Alcotest.(check int) "zero poly degree" (-1) (Polynomial.degree z)

let test_poly_derivative_mul () =
  let p = Polynomial.of_coeffs [| 1.0; 1.0 |] in
  (* (1+x)^2 = 1 + 2x + x^2 *)
  let sq = Polynomial.mul p p in
  Alcotest.(check bool)
    "square" true
    (Polynomial.equal sq (Polynomial.of_coeffs [| 1.0; 2.0; 1.0 |]));
  let d = Polynomial.derivative sq in
  Alcotest.(check bool)
    "derivative" true
    (Polynomial.equal d (Polynomial.of_coeffs [| 2.0; 2.0 |]))

let test_quadratic_roots_real () =
  let r1, r2 = Polynomial.quadratic_roots ~a:1.0 ~b:(-5.0) ~c:6.0 in
  check_close "r1" 2.0 (Cx.re r1);
  check_close "r2" 3.0 (Cx.re r2)

let test_quadratic_roots_complex () =
  let r1, r2 = Polynomial.quadratic_roots ~a:1.0 ~b:2.0 ~c:5.0 in
  check_close "re" (-1.0) (Cx.re r1);
  check_close "im1" (-2.0) (Cx.im r1);
  check_close "im2" 2.0 (Cx.im r2)

let test_quadratic_cancellation () =
  (* b^2 >> 4ac: the naive formula loses the small root; roots are
     sorted ascending so the small one (-1e-8) comes second *)
  let r1, r2 = Polynomial.quadratic_roots ~a:1.0 ~b:1e8 ~c:1.0 in
  check_close "large root" (-1e8) (Cx.re r1) ~tol:1e-6;
  check_close "small root" (-1e-8) (Cx.re r2) ~tol:1e-6

let test_poly_roots_cubic () =
  (* (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3 *)
  let p = Polynomial.of_coeffs [| -6.0; 11.0; -6.0; 1.0 |] in
  match Polynomial.roots p with
  | [ r1; r2; r3 ] ->
      check_close "r1" 1.0 (Cx.re r1) ~tol:1e-8;
      check_close "r2" 2.0 (Cx.re r2) ~tol:1e-8;
      check_close "r3" 3.0 (Cx.re r3) ~tol:1e-8
  | rs -> Alcotest.failf "expected 3 roots, got %d" (List.length rs)

let prop_poly_roots_evaluate_to_zero =
  QCheck2.Test.make ~name:"polynomial roots satisfy p(r) ~ 0" ~count:100
    QCheck2.Gen.(
      array_size (return 4) (float_range (-3.0) 3.0))
    (fun coeffs ->
      let p = Polynomial.of_coeffs (Array.append coeffs [| 1.0 |]) in
      let rs = Polynomial.roots p in
      List.for_all
        (fun r -> Cx.norm (Polynomial.eval_cx p r) < 1e-6)
        rs)

(* ---------------- Interp ---------------- *)

let test_interp_linear () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
  check_float "mid" 5.0 (Interp.linear ~xs ~ys 0.5);
  check_float "exact" 10.0 (Interp.linear ~xs ~ys 1.0);
  check_float "clamp left" 0.0 (Interp.linear ~xs ~ys (-1.0));
  check_float "clamp right" 0.0 (Interp.linear ~xs ~ys 5.0)

let test_interp_crossing () =
  check_float "crossing" 0.75
    (Interp.crossing ~x0:0.5 ~y0:0.0 ~x1:1.0 ~y1:2.0 ~level:1.0)

let test_interp_bracket () =
  let xs = [| 0.0; 1.0; 4.0; 9.0 |] in
  Alcotest.(check int) "inside" 1 (Interp.bracket_index xs 2.0);
  Alcotest.(check int) "below" 0 (Interp.bracket_index xs (-5.0));
  Alcotest.(check int) "above" 2 (Interp.bracket_index xs 100.0)

(* ---------------- Quadrature ---------------- *)

let test_quadrature_polynomial () =
  (* integral of x^2 over [0,3] = 9; simpson is exact for cubics *)
  check_close "simpson" 9.0 (Quadrature.simpson (fun x -> x *. x) 0.0 3.0);
  check_close "adaptive" 9.0
    (Quadrature.adaptive_simpson (fun x -> x *. x) 0.0 3.0)

let test_quadrature_trig () =
  check_close "sin over half period" 2.0
    (Quadrature.adaptive_simpson sin 0.0 Float.pi)
    ~tol:1e-9;
  check_close "trapezoid sin" 2.0 (Quadrature.trapezoid ~n:2000 sin 0.0 Float.pi)
    ~tol:1e-5

let test_quadrature_sampled () =
  let xs = Array.init 101 (fun i -> float_of_int i /. 100.0) in
  let ys = Array.map (fun x -> x) xs in
  check_close "linear ramp" 0.5 (Quadrature.trapezoid_sampled ~xs ~ys)

(* ---------------- Stats ---------------- *)

let test_stats_basic () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  check_float "var" 1.25 (Stats.variance a);
  check_float "min" 1.0 (Stats.min a);
  check_float "max" 4.0 (Stats.max a);
  check_close "rms" (Float.sqrt 7.5) (Stats.rms a)

let test_stats_percentile () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "median" 2.5 (Stats.percentile a 50.0);
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p100" 4.0 (Stats.percentile a 100.0)

let test_stats_rms_sampled () =
  (* RMS of sin over one full period = 1/sqrt(2) *)
  let n = 4001 in
  let xs = Array.init n (fun i -> float_of_int i /. float_of_int (n - 1) *. 2.0 *. Float.pi) in
  let ys = Array.map sin xs in
  check_close "sin rms" (1.0 /. Float.sqrt 2.0) (Stats.rms_sampled ~xs ~ys)
    ~tol:1e-5

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "empty rms_sampled"
    (Invalid_argument "Stats.rms_sampled: empty array") (fun () ->
      ignore (Stats.rms_sampled ~xs:[||] ~ys:[||]));
  Alcotest.check_raises "mismatched rms_sampled"
    (Invalid_argument "Stats.rms_sampled: xs and ys length mismatch")
    (fun () -> ignore (Stats.rms_sampled ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0 |]))

(* ---------------- Fdiff ---------------- *)

let test_fdiff_scalar () =
  check_close "d/dx x^3 at 2" 12.0 (Fdiff.central (fun x -> x ** 3.0) 2.0)
    ~tol:1e-6;
  check_close "d/dx sin at 0" 1.0 (Fdiff.central sin 0.0) ~tol:1e-9

let test_fdiff_jacobian () =
  let f x = [| x.(0) *. x.(1); x.(0) +. x.(1) |] in
  let j = Fdiff.jacobian f [| 2.0; 3.0 |] in
  check_close "df0/dx0" 3.0 (Matrix.get j 0 0) ~tol:1e-6;
  check_close "df0/dx1" 2.0 (Matrix.get j 0 1) ~tol:1e-6;
  check_close "df1/dx0" 1.0 (Matrix.get j 1 0) ~tol:1e-6;
  check_close "df1/dx1" 1.0 (Matrix.get j 1 1) ~tol:1e-6

(* ---------------- Laplace ---------------- *)

let test_laplace_exponential () =
  (* L^-1[1/(s+a)] = e^{-a t} *)
  let a = 3.0 in
  let fhat s = Cx.inv Cx.(s +: of_float a) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "exp decay at %g" t)
        (Float.exp (-.a *. t))
        (Laplace.invert fhat t) ~tol:1e-6)
    [ 0.1; 0.5; 1.0; 2.0 ]

let test_laplace_step_of_first_order () =
  (* step response of 1/(1 + s tau): 1 - e^{-t/tau} *)
  let tau = 2.0 in
  let h s = Cx.inv Cx.(of_float 1.0 +: scale tau s) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "rc step at %g" t)
        (1.0 -. Float.exp (-.t /. tau))
        (Laplace.step_response h t) ~tol:1e-6)
    [ 0.5; 1.0; 4.0 ]

let test_laplace_oscillatory () =
  (* L^-1[w/(s^2+w^2)] = sin(w t) *)
  let w = 2.0 in
  let fhat s = Cx.(of_float w /: ((s *: s) +: of_float (w *. w))) in
  List.iter
    (fun t ->
      check_close
        (Printf.sprintf "sin at %g" t)
        (Float.sin (w *. t))
        (Laplace.invert ~m:48 fhat t) ~tol:1e-4)
    [ 0.3; 1.0; 2.0 ]

(* ---------------- Cmatrix / Clu ---------------- *)

let test_cmatrix_basic () =
  let m = Cmatrix.init 2 3 (fun i j -> Cx.make (float_of_int i) (float_of_int j)) in
  Alcotest.(check int) "rows" 2 (Cmatrix.rows m);
  Alcotest.(check int) "cols" 3 (Cmatrix.cols m);
  check_close "get re" 1.0 (Cx.re (Cmatrix.get m 1 2));
  check_close "get im" 2.0 (Cx.im (Cmatrix.get m 1 2));
  let t = Cmatrix.transpose m in
  check_close "transpose" 2.0 (Cx.im (Cmatrix.get t 2 1));
  let r = Cmatrix.of_matrix (Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]) in
  let y = Cmatrix.mul_vec r [| Cx.one; Cx.i |] in
  check_close "mul_vec re" 1.0 (Cx.re y.(0));
  check_close "mul_vec im" 2.0 (Cx.im y.(0));
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Cmatrix: index (2,0) out of 2x3") (fun () ->
      ignore (Cmatrix.get m 2 0))

let test_clu_solve_roundtrip () =
  (* complex 3x3: solve, then verify A x = b *)
  let a =
    Cmatrix.init 3 3 (fun i j ->
        Cx.make
          (float_of_int ((i * 3) + j + 1))
          (if i = j then 1.0 else -0.5))
  in
  let b = [| Cx.one; Cx.i; Cx.make 2.0 (-1.0) |] in
  let x = Clu.solve_matrix a b in
  let ax = Cmatrix.mul_vec a x in
  Array.iteri
    (fun i bi ->
      check_close ~tol:1e-12 "Ax=b re" (Cx.re bi) (Cx.re ax.(i));
      check_close ~tol:1e-12 "Ax=b im" (Cx.im bi) (Cx.im ax.(i)))
    b;
  (* solve_into matches solve *)
  let lu = Clu.decompose a in
  let x2 = Array.make 3 Cx.zero in
  Clu.solve_into lu ~b ~x:x2;
  Array.iteri
    (fun i xi -> check_close "solve_into" (Cx.re xi) (Cx.re x2.(i)))
    x

let test_clu_singular () =
  let a = Cmatrix.init 2 2 (fun _ j -> if j = 0 then Cx.one else Cx.i) in
  Alcotest.check_raises "rank-1 matrix" Clu.Singular (fun () ->
      ignore (Clu.decompose a))

(* ---------------- Eig ---------------- *)

let sorted_re_im zs =
  let l = Array.to_list zs in
  List.sort
    (fun a b ->
      let c = Float.compare (Cx.re a) (Cx.re b) in
      if c <> 0 then c else Float.compare (Cx.im a) (Cx.im b))
    l

let test_eig_real_spectrum () =
  (* companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6 *)
  let a =
    Matrix.of_arrays
      [| [| 6.0; -11.0; 6.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |] |]
  in
  match sorted_re_im (Eig.eigenvalues a) with
  | [ e1; e2; e3 ] ->
      check_close ~tol:1e-9 "e1" 1.0 (Cx.re e1);
      check_close ~tol:1e-9 "e2" 2.0 (Cx.re e2);
      check_close ~tol:1e-9 "e3" 3.0 (Cx.re e3);
      List.iter
        (fun e -> check_close ~tol:1e-9 "real" 0.0 (Cx.im e))
        [ e1; e2; e3 ]
  | _ -> Alcotest.fail "expected 3 eigenvalues"

let test_eig_conjugate_pair () =
  (* damped rotation: eigenvalues -0.1 +/- 2i *)
  let a = Matrix.of_arrays [| [| -0.1; -2.0 |]; [| 2.0; -0.1 |] |] in
  match sorted_re_im (Eig.eigenvalues a) with
  | [ e1; e2 ] ->
      check_close ~tol:1e-9 "re" (-0.1) (Cx.re e1);
      check_close ~tol:1e-9 "im pair" (-2.0) (Float.min (Cx.im e1) (Cx.im e2));
      check_close ~tol:1e-9 "im pair" 2.0 (Float.max (Cx.im e1) (Cx.im e2))
  | _ -> Alcotest.fail "expected 2 eigenvalues"

(* ---------------- Arnoldi ---------------- *)

let test_arnoldi_orthonormal () =
  (* nonsymmetric operator; the basis must still be orthonormal *)
  let a =
    Matrix.of_arrays
      [|
        [| 2.0; 1.0; 0.0; 0.0 |];
        [| 0.5; 2.0; 1.0; 0.0 |];
        [| 0.0; 0.5; 2.0; 1.0 |];
        [| 0.0; 0.0; 0.5; 2.0 |];
      |]
  in
  let v =
    Arnoldi.block ~mul:(Matrix.mul_vec a) ~start:[| [| 1.0; 1.0; 1.0; 1.0 |] |] 4
  in
  Alcotest.(check int) "full dimension" 4 (Array.length v);
  Array.iteri
    (fun i vi ->
      Array.iteri
        (fun j vj ->
          let d = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) vi vj) in
          check_close ~tol:1e-10
            (Printf.sprintf "V%d . V%d" i j)
            (if i = j then 1.0 else 0.0)
            d)
        v)
    v

let test_arnoldi_deflation () =
  (* start vector is an eigenvector: the Krylov space is 1-dimensional
     no matter how many columns are requested *)
  let a = Matrix.of_arrays [| [| 3.0; 0.0 |]; [| 0.0; 5.0 |] |] in
  let v = Arnoldi.block ~mul:(Matrix.mul_vec a) ~start:[| [| 1.0; 0.0 |] |] 4 in
  Alcotest.(check int) "invariant subspace" 1 (Array.length v)

(* ---------------- Rcm ---------------- *)

let test_rcm_chain () =
  (* a path graph numbered adversarially still yields bandwidth 1 *)
  let n = 9 in
  let shuffled = [| 4; 7; 1; 8; 0; 3; 6; 2; 5 |] in
  (* path over shuffled labels: shuffled.(k) -- shuffled.(k+1) *)
  let adj = Array.make n [] in
  for k = 0 to n - 2 do
    let u = shuffled.(k) and v = shuffled.(k + 1) in
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  done;
  let perm = Rcm.permutation adj in
  (* a valid permutation of 0..n-1 *)
  let seen = Array.make n false in
  Array.iter (fun p -> seen.(p) <- true) perm;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen);
  Alcotest.(check int) "path bandwidth" 1 (Rcm.bandwidth adj perm)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "rlc_numerics"
    [
      ( "cx",
        [
          Alcotest.test_case "arithmetic" `Quick test_cx_ops;
          Alcotest.test_case "sqrt and exp" `Quick test_cx_sqrt_exp;
          Alcotest.test_case "is_real / checked" `Quick test_cx_is_real;
          Alcotest.test_case "is_finite" `Quick test_cx_finite;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "create/get/set" `Quick test_matrix_basic;
          Alcotest.test_case "multiplication" `Quick test_matrix_mul;
          Alcotest.test_case "identity & transpose" `Quick
            test_matrix_identity_transpose;
          Alcotest.test_case "ragged rejected" `Quick test_matrix_ragged;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve 3x3" `Quick test_lu_solve;
          Alcotest.test_case "det & inverse" `Quick test_lu_det_inverse;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
        ] );
      qsuite "lu-properties" [ prop_lu_roundtrip ];
      ( "banded",
        [
          Alcotest.test_case "storage & round-trip" `Quick test_banded_storage;
          Alcotest.test_case "bandwidth detection" `Quick test_banded_bandwidth;
          Alcotest.test_case "vs dense LU" `Quick test_banded_vs_dense_random;
          Alcotest.test_case "pivoting & aliased solve" `Quick
            test_banded_pivoting;
          Alcotest.test_case "singular detection" `Quick test_banded_singular;
          Alcotest.test_case "narrow band rejected" `Quick
            test_banded_of_matrix_rejects_tight_band;
        ] );
      qsuite "banded-properties" [ prop_banded_roundtrip ];
      ( "cbanded",
        [
          Alcotest.test_case "storage & round-trip" `Quick test_cbanded_storage;
          Alcotest.test_case "vs dense complex LU" `Quick
            test_cbanded_vs_clu_random;
          Alcotest.test_case "pivoting" `Quick test_cbanded_pivoting;
          Alcotest.test_case "singular detection" `Quick test_cbanded_singular;
        ] );
      ( "solver",
        [
          Alcotest.test_case "plan & backend choice" `Quick test_solver_plan;
          Alcotest.test_case "real factor/solve vs dense" `Quick
            test_solver_factor_solve;
          Alcotest.test_case "complex factor/solve vs dense" `Quick
            test_solver_cfactor_csolve;
        ] );
      ( "roots",
        [
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "brent no bracket" `Quick test_brent_no_bracket;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "newton evaluates each trial once" `Quick
            test_newton_evaluates_each_point_once;
          Alcotest.test_case "newton bracketed" `Quick test_newton_bracketed;
          Alcotest.test_case "bracket_first" `Quick test_bracket_first;
        ] );
      qsuite "roots-properties" [ prop_brent_finds_root ];
      ( "newton-nd",
        [
          Alcotest.test_case "2d circle/line" `Quick test_newton2d;
          Alcotest.test_case "bound clamping" `Quick test_newton2d_bounds;
          Alcotest.test_case "analytic jacobian" `Quick
            test_newton_analytic_jacobian;
        ] );
      ( "nelder-mead",
        [
          Alcotest.test_case "rosenbrock" `Quick test_nelder_mead_rosenbrock;
          Alcotest.test_case "nan region" `Quick
            test_nelder_mead_rejects_nan_region;
        ] );
      qsuite "nelder-mead-properties" [ prop_nelder_mead_quadratic ];
      ( "polynomial",
        [
          Alcotest.test_case "eval & degree" `Quick test_poly_eval;
          Alcotest.test_case "trim & zero" `Quick test_poly_trim_zero;
          Alcotest.test_case "derivative & mul" `Quick
            test_poly_derivative_mul;
          Alcotest.test_case "quadratic real" `Quick test_quadratic_roots_real;
          Alcotest.test_case "quadratic complex" `Quick
            test_quadratic_roots_complex;
          Alcotest.test_case "quadratic cancellation" `Quick
            test_quadratic_cancellation;
          Alcotest.test_case "cubic roots" `Quick test_poly_roots_cubic;
        ] );
      qsuite "polynomial-properties" [ prop_poly_roots_evaluate_to_zero ];
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_interp_linear;
          Alcotest.test_case "crossing" `Quick test_interp_crossing;
          Alcotest.test_case "bracket index" `Quick test_interp_bracket;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "polynomials" `Quick test_quadrature_polynomial;
          Alcotest.test_case "trig" `Quick test_quadrature_trig;
          Alcotest.test_case "sampled" `Quick test_quadrature_sampled;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "rms sampled" `Quick test_stats_rms_sampled;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
        ] );
      ( "fdiff",
        [
          Alcotest.test_case "scalar" `Quick test_fdiff_scalar;
          Alcotest.test_case "jacobian" `Quick test_fdiff_jacobian;
        ] );
      ( "laplace",
        [
          Alcotest.test_case "exponential" `Quick test_laplace_exponential;
          Alcotest.test_case "first-order step" `Quick
            test_laplace_step_of_first_order;
          Alcotest.test_case "oscillatory" `Quick test_laplace_oscillatory;
        ] );
      ( "cmatrix",
        [
          Alcotest.test_case "basics" `Quick test_cmatrix_basic;
          Alcotest.test_case "clu round-trip" `Quick test_clu_solve_roundtrip;
          Alcotest.test_case "clu singular" `Quick test_clu_singular;
        ] );
      ( "eig",
        [
          Alcotest.test_case "real spectrum" `Quick test_eig_real_spectrum;
          Alcotest.test_case "conjugate pair" `Quick test_eig_conjugate_pair;
        ] );
      ( "arnoldi",
        [
          Alcotest.test_case "orthonormal basis" `Quick
            test_arnoldi_orthonormal;
          Alcotest.test_case "deflation" `Quick test_arnoldi_deflation;
        ] );
      ( "rcm",
        [ Alcotest.test_case "path graph" `Quick test_rcm_chain ] );
    ]
