type t = {
  lu : Matrix.t; (* combined L (unit diagonal, below) and U (on/above) *)
  perm : int array; (* row permutation *)
  sign : float; (* determinant sign of the permutation *)
}

exception Singular

let m_decompose = Rlc_instr.Metrics.counter "lu.decompose"
let m_solve = Rlc_instr.Metrics.counter "lu.solve"

let size f = Array.length f.perm

(* Health probe (pivot growth = max |U| over max |A|, rcond proxy =
   min over max |U diagonal|): cheap by-products of the factor but
   still O(n^2) reads, so callers run it only while recording.  The
   input survives the factor (it is copied), so [input i j] and
   [factor i j] read the moduli of A and of the combined L\U. *)
let probe_factor ~kind n ~input ~factor =
  let amax = ref 0.0 and umax = ref 0.0 in
  let dmin = ref infinity and dmax = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = input i j in
      if v > !amax then amax := v
    done;
    for j = i to n - 1 do
      let v = factor i j in
      if v > !umax then umax := v
    done;
    let d = factor i i in
    if d < !dmin then dmin := d;
    if d > !dmax then dmax := d
  done;
  Rlc_instr.Health.observe_factor ~kind ~amax:!amax ~umax:!umax ~dmin:!dmin
    ~dmax:!dmax

(* Doolittle factorisation with partial (row) pivoting. *)
let decompose ?(pivot_tol = 1e-300) a =
  Rlc_instr.Metrics.incr m_decompose;
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Lu.decompose: matrix not square";
  let lu = Matrix.copy a in
  let perm = Array.init n (fun k -> k) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* choose pivot row *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs (Matrix.get lu k k)) in
    for r = k + 1 to n - 1 do
      let v = Float.abs (Matrix.get lu r k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := r
      end
    done;
    if !pivot_val <= pivot_tol then begin
      Rlc_instr.Health.failure ~kind:"lu" ~reason:"singular pivot";
      raise Singular
    end;
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let tmp = Matrix.get lu k j in
        Matrix.set lu k j (Matrix.get lu !pivot_row j);
        Matrix.set lu !pivot_row j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let pivot = Matrix.get lu k k in
    for r = k + 1 to n - 1 do
      let factor = Matrix.get lu r k /. pivot in
      Matrix.set lu r k factor;
      for j = k + 1 to n - 1 do
        Matrix.set lu r j (Matrix.get lu r j -. (factor *. Matrix.get lu k j))
      done
    done
  done;
  if Rlc_instr.Metrics.recording () then
    probe_factor ~kind:"lu" n
      ~input:(fun i j -> Float.abs (Matrix.get a i j))
      ~factor:(fun i j -> Float.abs (Matrix.get lu i j));
  { lu; perm; sign = !sign }

let solve_into f ~b ~x =
  Rlc_instr.Metrics.incr m_solve;
  let n = size f in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve_into: size mismatch";
  if x == b then invalid_arg "Lu.solve_into: b and x must be distinct";
  for k = 0 to n - 1 do
    x.(k) <- b.(f.perm.(k))
  done;
  (* forward substitution: L y = P b *)
  for k = 1 to n - 1 do
    let acc = ref x.(k) in
    for j = 0 to k - 1 do
      acc := !acc -. (Matrix.get f.lu k j *. x.(j))
    done;
    x.(k) <- !acc
  done;
  (* back substitution: U x = y *)
  for k = n - 1 downto 0 do
    let acc = ref x.(k) in
    for j = k + 1 to n - 1 do
      acc := !acc -. (Matrix.get f.lu k j *. x.(j))
    done;
    x.(k) <- !acc /. Matrix.get f.lu k k
  done

let solve f b =
  let x = Array.make (size f) 0.0 in
  solve_into f ~b ~x;
  x

let solve_matrix ?pivot_tol a b = solve (decompose ?pivot_tol a) b

let det f =
  let n = size f in
  let acc = ref f.sign in
  for k = 0 to n - 1 do
    acc := !acc *. Matrix.get f.lu k k
  done;
  !acc

let inverse f =
  let n = size f in
  let inv = Matrix.create n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let col = solve f e in
    for i = 0 to n - 1 do
      Matrix.set inv i j col.(i)
    done
  done;
  inv
