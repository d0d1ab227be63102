(* Band storage follows LAPACK's general-band convention: column j is
   contiguous, entry (i,j) lives at offset [kl + ku + i - j], and the
   top [kl] rows of each column are workspace so that the fill-in
   created by row pivoting (U gains up to kl extra superdiagonals)
   stays inside the array. *)

type geometry = {
  n : int;
  kl : int;
  ku : int;
  ldab : int; (* 2*kl + ku + 1 *)
}

type storage = {
  g : geometry;
  ab : float array; (* column-major, n columns of height ldab *)
}

type t = {
  fg : geometry;
  fab : float array; (* factorised bands: L multipliers + widened U *)
  ipiv : int array; (* row interchanged with row k at step k *)
}

exception Singular = Lu.Singular

let geometry ~who ~n ~kl ~ku =
  if n <= 0 then invalid_arg (who ^ ".create_storage: n <= 0");
  if kl < 0 || ku < 0 then
    invalid_arg (who ^ ".create_storage: negative bandwidth");
  if kl >= n || ku >= n then
    invalid_arg (who ^ ".create_storage: bandwidth >= n");
  { n; kl; ku; ldab = (2 * kl) + ku + 1 }

let create_storage ~n ~kl ~ku =
  let g = geometry ~who:"Banded" ~n ~kl ~ku in
  { g; ab = Array.make (n * g.ldab) 0.0 }

let storage_n s = s.g.n
let storage_kl s = s.g.kl
let storage_ku s = s.g.ku

let idx g i j = (j * g.ldab) + g.kl + g.ku + i - j

let check_bounds ~who g i j =
  if i < 0 || i >= g.n || j < 0 || j >= g.n then
    invalid_arg
      (Printf.sprintf "%s: index (%d,%d) out of %dx%d" who i j g.n g.n)

let in_band g i j = i - j <= g.kl && j - i <= g.ku

let band_idx ~who g i j =
  check_bounds ~who g i j;
  if not (in_band g i j) then
    invalid_arg
      (Printf.sprintf "%s: (%d,%d) outside band (kl=%d, ku=%d)" who i j g.kl
         g.ku);
  idx g i j

let get s i j =
  check_bounds ~who:"Banded" s.g i j;
  if in_band s.g i j then s.ab.(idx s.g i j) else 0.0

let set s i j v = s.ab.(band_idx ~who:"Banded" s.g i j) <- v

let add_to s i j v =
  let k = band_idx ~who:"Banded" s.g i j in
  s.ab.(k) <- s.ab.(k) +. v

let to_dense s =
  let { n; kl; ku; _ } = s.g in
  let m = Matrix.create n n in
  for j = 0 to n - 1 do
    for i = Int.max 0 (j - ku) to Int.min (n - 1) (j + kl) do
      Matrix.set m i j s.ab.(idx s.g i j)
    done
  done;
  m

let bandwidth m =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Banded.bandwidth: matrix not square";
  let kl = ref 0 and ku = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Matrix.get m i j <> 0.0 then begin
        if i - j > !kl then kl := i - j;
        if j - i > !ku then ku := j - i
      end
    done
  done;
  (!kl, !ku)

let of_matrix ?kl ?ku m =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Banded.of_matrix: matrix not square";
  let dkl, dku = bandwidth m in
  let kl = match kl with Some k -> k | None -> dkl in
  let ku = match ku with Some k -> k | None -> dku in
  if kl < dkl || ku < dku then
    invalid_arg "Banded.of_matrix: nonzero outside the requested band";
  let s = create_storage ~n ~kl ~ku in
  for j = 0 to n - 1 do
    for i = Int.max 0 (j - ku) to Int.min (n - 1) (j + kl) do
      s.ab.(idx s.g i j) <- Matrix.get m i j
    done
  done;
  s

(* Unblocked dgbtf2: at column j the pivot is searched over the kl
   rows below the diagonal; a swap moves a row whose entries extend up
   to column j + kl + ku, which is why U is stored kl wider than the
   assembled band. *)
let m_decompose = Rlc_instr.Metrics.counter "banded.decompose"
let m_solve = Rlc_instr.Metrics.counter "banded.solve"

(* amax over the band array; the workspace rows are zero before
   factorisation and hold L multipliers (|m| <= 1 under partial
   pivoting) after, so the same sweep serves both probe sides *)
let band_amax ab =
  let m = ref 0.0 in
  Array.iter
    (fun v ->
      let v = Float.abs v in
      if v > !m then m := v)
    ab;
  !m

let decompose ?(pivot_tol = 1e-300) s =
  Rlc_instr.Metrics.incr m_decompose;
  let { g = { n; kl; ku; ldab } as g; ab } = s in
  let at i j = (j * ldab) + kl + ku + i - j in
  let probing = Rlc_instr.Metrics.recording () in
  let amax = if probing then band_amax ab else 0.0 in
  let ipiv = Array.make n 0 in
  let ju = ref 0 in
  for j = 0 to n - 1 do
    let km = Int.min kl (n - 1 - j) in
    let jp = ref 0 in
    let pv = ref (Float.abs ab.(at j j)) in
    for i = 1 to km do
      let v = Float.abs ab.(at (j + i) j) in
      if v > !pv then begin
        pv := v;
        jp := i
      end
    done;
    if !pv <= pivot_tol then begin
      Rlc_instr.Health.failure ~kind:"banded" ~reason:"singular pivot";
      raise Singular
    end;
    ipiv.(j) <- j + !jp;
    ju := Int.max !ju (Int.min (j + ku + !jp) (n - 1));
    if !jp <> 0 then begin
      let r = j + !jp in
      for c = j to !ju do
        let a = at j c and b = at r c in
        let tmp = ab.(a) in
        ab.(a) <- ab.(b);
        ab.(b) <- tmp
      done
    end;
    if km > 0 then begin
      let pivot = ab.(at j j) in
      for i = 1 to km do
        ab.(at (j + i) j) <- ab.(at (j + i) j) /. pivot
      done;
      for c = j + 1 to !ju do
        let ujc = ab.(at j c) in
        if ujc <> 0.0 then
          for i = 1 to km do
            ab.(at (j + i) c) <- ab.(at (j + i) c) -. (ab.(at (j + i) j) *. ujc)
          done
      done
    end
  done;
  if probing then begin
    let umax = band_amax ab in
    let dmin = ref infinity and dmax = ref 0.0 in
    for j = 0 to n - 1 do
      let d = Float.abs ab.(at j j) in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d
    done;
    Rlc_instr.Health.observe_factor ~kind:"banded" ~amax ~umax ~dmin:!dmin
      ~dmax:!dmax
  end;
  { fg = g; fab = ab; ipiv }

let size f = f.fg.n
let kl f = f.fg.kl
let ku f = f.fg.ku

let solve_into f ~b ~x =
  Rlc_instr.Metrics.incr m_solve;
  let { fg = { n; kl; ku; ldab }; fab = ab; ipiv } = f in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Banded.solve_into: size mismatch";
  if x != b then Array.blit b 0 x 0 n;
  (* A(j + i, j) sits at [diag j + i]: index arithmetic written out,
     since a local [at] closure would be allocated on every solve *)
  let d = kl + ku in
  (* L y = P b, applying the interchanges in factorisation order *)
  for j = 0 to n - 1 do
    let p = ipiv.(j) in
    if p <> j then begin
      let tmp = x.(j) in
      x.(j) <- x.(p);
      x.(p) <- tmp
    end;
    let xj = x.(j) in
    if xj <> 0.0 then begin
      let km = Int.min kl (n - 1 - j) and diag = (j * ldab) + d in
      for i = 1 to km do
        x.(j + i) <- x.(j + i) -. (ab.(diag + i) *. xj)
      done
    end
  done;
  (* U x = y; U has kl + ku superdiagonals after pivoting *)
  for j = n - 1 downto 0 do
    let diag = (j * ldab) + d in
    let xj = x.(j) /. ab.(diag) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let lm = Int.min d j in
      for i = 1 to lm do
        x.(j - i) <- x.(j - i) -. (ab.(diag - i) *. xj)
      done
    end
  done

let solve f b =
  let x = Array.make (size f) 0.0 in
  solve_into f ~b ~x;
  x
