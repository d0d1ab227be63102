(* Complex band storage in Banded's geometry (LAPACK general-band
   layout, see Banded).  Real and imaginary parts are split into two
   float arrays so assembly and factorisation never box a complex
   value. *)

type storage = {
  g : Banded.geometry;
  re : float array; (* column-major, n columns of height ldab *)
  im : float array;
}

type t = {
  fg : Banded.geometry;
  fre : float array; (* factorised bands: L multipliers + widened U *)
  fim : float array;
  ipiv : int array; (* row interchanged with row k at step k *)
}

exception Singular = Lu.Singular

let create_storage ~n ~kl ~ku =
  let g = Banded.geometry ~who:"Cbanded" ~n ~kl ~ku in
  let len = n * g.Banded.ldab in
  { g; re = Array.make len 0.0; im = Array.make len 0.0 }

let storage_n s = s.g.Banded.n
let storage_kl s = s.g.Banded.kl
let storage_ku s = s.g.Banded.ku

let get s i j =
  Banded.check_bounds ~who:"Cbanded" s.g i j;
  if Banded.in_band s.g i j then
    let k = Banded.idx s.g i j in
    Cx.make s.re.(k) s.im.(k)
  else Cx.zero

let set s i j v =
  let k = Banded.band_idx ~who:"Cbanded" s.g i j in
  s.re.(k) <- Cx.re v;
  s.im.(k) <- Cx.im v

let add_to s i j v =
  let k = Banded.band_idx ~who:"Cbanded" s.g i j in
  s.re.(k) <- s.re.(k) +. Cx.re v;
  s.im.(k) <- s.im.(k) +. Cx.im v

let to_dense s =
  let { Banded.n; kl; ku; _ } = s.g in
  let m = Cmatrix.create n n in
  for j = 0 to n - 1 do
    for i = Int.max 0 (j - ku) to Int.min (n - 1) (j + kl) do
      let k = Banded.idx s.g i j in
      Cmatrix.set m i j (Cx.make s.re.(k) s.im.(k))
    done
  done;
  m

(* Smith's algorithm for (ar + i ai) / (br + i bi): avoids the
   overflow/underflow of the naive formula when |b| is extreme. *)
let div_parts ar ai br bi =
  if Float.abs br >= Float.abs bi then begin
    let r = bi /. br in
    let d = br +. (bi *. r) in
    ((ar +. (ai *. r)) /. d, (ai -. (ar *. r)) /. d)
  end
  else begin
    let r = br /. bi in
    let d = (br *. r) +. bi in
    (((ar *. r) +. ai) /. d, ((ai *. r) -. ar) /. d)
  end

(* Unblocked zgbtf2, mirroring Banded.decompose: at column j the pivot
   is searched by modulus over the kl rows below the diagonal; a swap
   moves a row whose entries extend up to column j + kl + ku, which is
   why U is stored kl wider than the assembled band. *)
let m_decompose = Rlc_instr.Metrics.counter "cbanded.decompose"
let m_solve = Rlc_instr.Metrics.counter "cbanded.solve"

(* see Banded.band_amax: the same sweep works before (workspace rows
   zero) and after (L multipliers have modulus <= 1) factorisation *)
let cband_amax re im =
  let m = ref 0.0 in
  for k = 0 to Array.length re - 1 do
    let v = Float.hypot re.(k) im.(k) in
    if v > !m then m := v
  done;
  !m

let decompose ?(pivot_tol = 1e-300) s =
  Rlc_instr.Metrics.incr m_decompose;
  let { g = { Banded.n; kl; ku; ldab } as g; re; im } = s in
  let at i j = (j * ldab) + kl + ku + i - j in
  let probing = Rlc_instr.Metrics.recording () in
  let amax = if probing then cband_amax re im else 0.0 in
  let ipiv = Array.make n 0 in
  let ju = ref 0 in
  for j = 0 to n - 1 do
    let km = Int.min kl (n - 1 - j) in
    let jp = ref 0 in
    let pv = ref (Float.hypot re.(at j j) im.(at j j)) in
    for i = 1 to km do
      let k = at (j + i) j in
      let v = Float.hypot re.(k) im.(k) in
      if v > !pv then begin
        pv := v;
        jp := i
      end
    done;
    if !pv <= pivot_tol then begin
      Rlc_instr.Health.failure ~kind:"cbanded" ~reason:"singular pivot";
      raise Singular
    end;
    ipiv.(j) <- j + !jp;
    ju := Int.max !ju (Int.min (j + ku + !jp) (n - 1));
    if !jp <> 0 then begin
      let r = j + !jp in
      for c = j to !ju do
        let a = at j c and b = at r c in
        let tr = re.(a) and ti = im.(a) in
        re.(a) <- re.(b);
        im.(a) <- im.(b);
        re.(b) <- tr;
        im.(b) <- ti
      done
    end;
    if km > 0 then begin
      let p = at j j in
      let pr = re.(p) and pi = im.(p) in
      for i = 1 to km do
        let k = at (j + i) j in
        let qr, qi = div_parts re.(k) im.(k) pr pi in
        re.(k) <- qr;
        im.(k) <- qi
      done;
      for c = j + 1 to !ju do
        let u = at j c in
        let ur = re.(u) and ui = im.(u) in
        if ur <> 0.0 || ui <> 0.0 then
          for i = 1 to km do
            let l = at (j + i) j in
            let k = at (j + i) c in
            let lr = re.(l) and li = im.(l) in
            re.(k) <- re.(k) -. ((lr *. ur) -. (li *. ui));
            im.(k) <- im.(k) -. ((lr *. ui) +. (li *. ur))
          done
      done
    end
  done;
  if probing then begin
    let umax = cband_amax re im in
    let dmin = ref infinity and dmax = ref 0.0 in
    for j = 0 to n - 1 do
      let k = at j j in
      let d = Float.hypot re.(k) im.(k) in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d
    done;
    Rlc_instr.Health.observe_factor ~kind:"cbanded" ~amax ~umax ~dmin:!dmin
      ~dmax:!dmax
  end;
  { fg = g; fre = re; fim = im; ipiv }

let size f = f.fg.Banded.n
let kl f = f.fg.Banded.kl
let ku f = f.fg.Banded.ku

let solve_into f ~b ~x =
  Rlc_instr.Metrics.incr m_solve;
  let { fg = { Banded.n; kl; ku; ldab }; fre = re; fim = im; ipiv } = f in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Cbanded.solve_into: size mismatch";
  let at i j = (j * ldab) + kl + ku + i - j in
  (* split the RHS so the substitution sweeps stay box-free *)
  let xr = Array.make n 0.0 and xi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    xr.(k) <- Cx.re b.(k);
    xi.(k) <- Cx.im b.(k)
  done;
  (* L y = P b, applying the interchanges in factorisation order *)
  for j = 0 to n - 1 do
    let p = ipiv.(j) in
    if p <> j then begin
      let tr = xr.(j) and ti = xi.(j) in
      xr.(j) <- xr.(p);
      xi.(j) <- xi.(p);
      xr.(p) <- tr;
      xi.(p) <- ti
    end;
    let yr = xr.(j) and yi = xi.(j) in
    if yr <> 0.0 || yi <> 0.0 then begin
      let km = Int.min kl (n - 1 - j) in
      for i = 1 to km do
        let l = at (j + i) j in
        let lr = re.(l) and li = im.(l) in
        xr.(j + i) <- xr.(j + i) -. ((lr *. yr) -. (li *. yi));
        xi.(j + i) <- xi.(j + i) -. ((lr *. yi) +. (li *. yr))
      done
    end
  done;
  (* U x = y; U has kl + ku superdiagonals after pivoting *)
  for j = n - 1 downto 0 do
    let d = at j j in
    let qr, qi = div_parts xr.(j) xi.(j) re.(d) im.(d) in
    xr.(j) <- qr;
    xi.(j) <- qi;
    if qr <> 0.0 || qi <> 0.0 then begin
      let lm = Int.min (kl + ku) j in
      for i = 1 to lm do
        let u = at (j - i) j in
        let ur = re.(u) and ui = im.(u) in
        xr.(j - i) <- xr.(j - i) -. ((ur *. qr) -. (ui *. qi));
        xi.(j - i) <- xi.(j - i) -. ((ur *. qi) +. (ui *. qr))
      done
    end
  done;
  for k = 0 to n - 1 do
    x.(k) <- Cx.make xr.(k) xi.(k)
  done

let solve f b =
  let x = Array.make (size f) Cx.zero in
  solve_into f ~b ~x;
  x
