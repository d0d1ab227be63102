type t = {
  lu : Cmatrix.t; (* combined L (unit diagonal, below) and U (on/above) *)
  perm : int array; (* row permutation *)
}

exception Singular = Lu.Singular

let m_decompose = Rlc_instr.Metrics.counter "clu.decompose"
let m_solve = Rlc_instr.Metrics.counter "clu.solve"

let size f = Array.length f.perm

(* Doolittle factorisation with partial (row) pivoting by modulus. *)
let decompose ?(pivot_tol = 1e-300) a =
  Rlc_instr.Metrics.incr m_decompose;
  let n = Cmatrix.rows a in
  if Cmatrix.cols a <> n then invalid_arg "Clu.decompose: matrix not square";
  let lu = Cmatrix.copy a in
  let perm = Array.init n (fun k -> k) in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_val = ref (Cx.norm (Cmatrix.get lu k k)) in
    for r = k + 1 to n - 1 do
      let v = Cx.norm (Cmatrix.get lu r k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := r
      end
    done;
    if !pivot_val <= pivot_tol then begin
      Rlc_instr.Health.failure ~kind:"clu" ~reason:"singular pivot";
      raise Singular
    end;
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let tmp = Cmatrix.get lu k j in
        Cmatrix.set lu k j (Cmatrix.get lu !pivot_row j);
        Cmatrix.set lu !pivot_row j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp
    end;
    let pivot = Cmatrix.get lu k k in
    for r = k + 1 to n - 1 do
      let factor = Cx.( /: ) (Cmatrix.get lu r k) pivot in
      Cmatrix.set lu r k factor;
      for j = k + 1 to n - 1 do
        Cmatrix.set lu r j
          (Cx.( -: ) (Cmatrix.get lu r j)
             (Cx.( *: ) factor (Cmatrix.get lu k j)))
      done
    done
  done;
  if Rlc_instr.Metrics.recording () then
    Lu.probe_factor ~kind:"clu" n
      ~input:(fun i j -> Cx.norm (Cmatrix.get a i j))
      ~factor:(fun i j -> Cx.norm (Cmatrix.get lu i j));
  { lu; perm }

let solve_into f ~b ~x =
  Rlc_instr.Metrics.incr m_solve;
  let n = size f in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Clu.solve_into: size mismatch";
  if x == b then invalid_arg "Clu.solve_into: b and x must be distinct";
  for k = 0 to n - 1 do
    x.(k) <- b.(f.perm.(k))
  done;
  (* forward substitution: L y = P b *)
  for k = 1 to n - 1 do
    let acc = ref x.(k) in
    for j = 0 to k - 1 do
      acc := Cx.( -: ) !acc (Cx.( *: ) (Cmatrix.get f.lu k j) x.(j))
    done;
    x.(k) <- !acc
  done;
  (* back substitution: U x = y *)
  for k = n - 1 downto 0 do
    let acc = ref x.(k) in
    for j = k + 1 to n - 1 do
      acc := Cx.( -: ) !acc (Cx.( *: ) (Cmatrix.get f.lu k j) x.(j))
    done;
    x.(k) <- Cx.( /: ) !acc (Cmatrix.get f.lu k k)
  done

let solve f b =
  let n = size f in
  if Array.length b <> n then invalid_arg "Clu.solve: size mismatch";
  let x = Array.make n Cx.zero in
  solve_into f ~b ~x;
  x

let solve_matrix ?pivot_tol a b = solve (decompose ?pivot_tol a) b
