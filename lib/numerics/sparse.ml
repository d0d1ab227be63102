(* General sparse LU, Gilbert-Peierls style.

   The factorisation is left-looking over columns: the pattern of each
   column of L and U is the reach of the column's nonzeros in the
   directed graph of the L computed so far (one depth-first search per
   column, O(flops) total), the numeric update applies exactly the
   columns that pattern names, and the pivot is chosen among the
   not-yet-pivotal rows of the pattern with threshold partial pivoting
   that prefers the diagonal (MNA systems carry structurally zero
   diagonals on the source/branch rows, so pure diagonal pivoting is
   not an option, while unrestricted partial pivoting destroys the
   fill the min-degree ordering bought — the threshold buys stability
   without the fill).

   The split that matters to the callers: {!factor} discovers the
   pattern and the pivot sequence (the *symbolic* analysis) while
   computing the first numeric factorisation; {!refactor} replays that
   analysis against new values in the same stamped pattern — no graph
   search, no pivot search, just the recorded update sequence.  An AC
   sweep analyses once at its first frequency and refactors at every
   other point; the transient engine analyses once per netlist and
   refactors per (method, dt).  A replayed pivot can of course go bad
   on values far from the analysed ones, so {!refactor} watches the
   multiplier growth and raises {!Repivot} for the caller to fall back
   to a fresh {!factor}.

   Storage is compressed-column throughout: L strictly lower with unit
   diagonal implicit, U strictly upper per column in the exact order
   the updates were applied (topological for the analysed pattern,
   which is what makes the replay a straight array walk), diagonal of
   U separate.  Row indices inside the factors live in *pivot*
   coordinates (position in the elimination sequence); {!solve_into}
   carries the row permutation.  The complex mirror ({!cfactor} /
   {!crefactor} / {!csolve_into}) repeats only the numeric loops, over
   split re/im arrays rather than an array of records, like
   {!Cbanded}; the symbolic record and the argument checks around
   those loops are shared. *)

exception Singular = Lu.Singular
exception Repivot

(* ------------------------------------------------------------------ *)
(* compressed-column inputs                                            *)
(* ------------------------------------------------------------------ *)

(* The compressed form of one stamp sequence: the sequence itself
   ([srows], [scols]), the position each stamp accumulates into
   ([dst]) and the column pattern.  Within a column the entries keep
   first-occurrence order, so the pattern is a pure function of the
   stamp sequence (refactor relies on that); a later fill with the
   same sequence reuses the layout and only scatters its values. *)
type layout = {
  ln : int;
  srows : int array;
  scols : int array;
  dst : int array;
  lcolptr : int array;
  lrowind : int array;
}

type csc = {
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
  layout : layout;
}

type ccsc = {
  cn : int;
  ccolptr : int array;
  crowind : int array;
  vre : float array;
  vim : float array;
  clayout : layout;
}

(* growable triplet buffers *)
type 'a buf = { mutable a : 'a array; mutable len : int }

let bmake z = { a = Array.make 64 z; len = 0 }

let bpush b x =
  if b.len = Array.length b.a then begin
    let c = Array.make (2 * b.len) b.a.(0) in
    Array.blit b.a 0 c 0 b.len;
    b.a <- c
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* the stamps of one fill, in order; a real fill leaves [sim] zero *)
type stamps = {
  mutable si : int array;
  mutable sj : int array;
  mutable sre : float array;
  mutable sim : float array;
  mutable sn : int;
}

let stamps () =
  {
    si = Array.make 64 0;
    sj = Array.make 64 0;
    sre = Array.make 64 0.0;
    sim = Array.make 64 0.0;
    sn = 0;
  }

let grow_stamps s =
  let cap = 2 * Array.length s.si in
  let int_ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  let float_ext a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  s.si <- int_ext s.si;
  s.sj <- int_ext s.sj;
  s.sre <- float_ext s.sre;
  s.sim <- float_ext s.sim

let[@inline] push ~who ~n s i j re im =
  if i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg (who ^ ": index out of range");
  if s.sn = Array.length s.si then grow_stamps s;
  let k = s.sn in
  s.si.(k) <- i;
  s.sj.(k) <- j;
  s.sre.(k) <- re;
  s.sim.(k) <- im;
  s.sn <- k + 1

(* stamps -> the compressed layout: a counting sort by column, then a
   dense slot map merges each column's duplicates into their first
   occurrence *)
let layout_of ~n s =
  let m = s.sn in
  let cnt = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let j = s.sj.(k) in
    cnt.(j + 1) <- cnt.(j + 1) + 1
  done;
  for j = 0 to n - 1 do
    cnt.(j + 1) <- cnt.(j + 1) + cnt.(j)
  done;
  let order = Array.make (Int.max m 1) 0 in
  let next = Array.copy cnt in
  for k = 0 to m - 1 do
    let j = s.sj.(k) in
    order.(next.(j)) <- k;
    next.(j) <- next.(j) + 1
  done;
  let slot = Array.make n (-1) in
  let colptr = Array.make (n + 1) 0 in
  let rowind = Array.make (Int.max m 1) 0 and len = ref 0 in
  let dst = Array.make m 0 in
  for j = 0 to n - 1 do
    colptr.(j) <- !len;
    for p = cnt.(j) to cnt.(j + 1) - 1 do
      let k = order.(p) in
      let i = s.si.(k) in
      if slot.(i) >= colptr.(j) && slot.(i) < !len && rowind.(slot.(i)) = i
      then dst.(k) <- slot.(i)
      else begin
        slot.(i) <- !len;
        rowind.(!len) <- i;
        dst.(k) <- !len;
        incr len
      end
    done
  done;
  colptr.(n) <- !len;
  {
    ln = n;
    srows = Array.sub s.si 0 m;
    scols = Array.sub s.sj 0 m;
    dst;
    lcolptr = colptr;
    lrowind = Array.sub rowind 0 !len;
  }

(* [like] when these stamps are its sequence, a fresh layout otherwise *)
let layout_for like ~n s =
  let rec same_from l k =
    k = s.sn
    || (l.srows.(k) = s.si.(k) && l.scols.(k) = s.sj.(k) && same_from l (k + 1))
  in
  let same l = l.ln = n && Array.length l.srows = s.sn && same_from l 0 in
  match like with Some l when same l -> l | Some _ | None -> layout_of ~n s

(* the accumulated values: each position's stamps summed in stamp
   order, starting from -0.0, the additive identity (-0.0 + v = v for
   every v), so a position holds the bits of its first stamp's value
   plus the later ones *)
let scatter l v m =
  let out = Array.make (Array.length l.lrowind) (-0.0) in
  for k = 0 to m - 1 do
    let d = l.dst.(k) in
    out.(d) <- out.(d) +. v.(k)
  done;
  out

let nnz a = a.colptr.(a.n)
let cnnz a = a.ccolptr.(a.cn)

(* ------------------------------------------------------------------ *)
(* symbolic structure (shared by real and complex factors)             *)
(* ------------------------------------------------------------------ *)

type symbolic = {
  n : int;
  pinv : int array;  (* input row -> pivot position *)
  prow : int array;  (* pivot position -> input row *)
  lp : int array;  (* L colptr, n+1; row indices in pivot coords, > j *)
  li : int array;
  up : int array;  (* U colptr, n+1; entries in applied (topological)
                      order, pivot coords < j; diagonal separate *)
  ui : int array;
  annz : int;  (* nnz of the analysed input, a cheap pattern check *)
  alayout : layout;  (* the analysed input's stamp layout *)
}

let sym_n s = s.n
let sym_lu_nnz s = s.lp.(s.n) + s.up.(s.n) + s.n

(* reach of column-j pattern in the graph of L-so-far; non-recursive
   DFS after cs_dfs.  [li_buf]/[lp_live] describe L columns discovered
   so far with *input* row indices; [mark] carries stamp [j + 1].
   Returns [top]; the pattern sits in [xi.(top .. n-1)] in topological
   order. *)
let reach ~n ~acolptr ~arowind ~j ~pinv ~lp_live ~li_buf ~mark ~xi ~pstack =
  let top = ref n in
  let head = ref 0 in
  let stamp = j + 1 in
  for p = acolptr.(j) to acolptr.(j + 1) - 1 do
    let root = arowind.(p) in
    if mark.(root) <> stamp then begin
      (* DFS from root *)
      head := 0;
      xi.(0) <- root;
      while !head >= 0 do
        let i = xi.(!head) in
        if mark.(i) <> stamp then begin
          mark.(i) <- stamp;
          pstack.(!head) <- (if pinv.(i) < 0 then 0 else lp_live.(pinv.(i)))
        end;
        let col = pinv.(i) in
        let pend = if col < 0 then 0 else lp_live.(col + 1) in
        let advanced = ref false in
        let q = ref pstack.(!head) in
        while (not !advanced) && !q < pend do
          let child = li_buf.(!q) in
          incr q;
          if mark.(child) <> stamp then begin
            pstack.(!head) <- !q;
            incr head;
            xi.(!head) <- child;
            advanced := true
          end
        done;
        if not !advanced then begin
          (* all children done: pop to output *)
          decr head;
          decr top;
          xi.(!top) <- i
        end
      done
    end
  done;
  !top

(* The symbolic record {!factor} and {!cfactor} leave behind: [li]
   and [ui] are the grown pattern buffers, [li] still in input row
   coordinates. *)
let symbolic_of_pattern ~n ~pinv ~prow ~lp ~li ~up ~ui ~annz ~alayout =
  (* remap L row indices into pivot coordinates *)
  let lin = Array.sub li.a 0 li.len in
  for k = 0 to li.len - 1 do
    lin.(k) <- pinv.(lin.(k))
  done;
  {
    n;
    pinv;
    prow;
    lp;
    li = lin;
    up;
    ui = Array.sub ui.a 0 ui.len;
    annz;
    alayout;
  }

(* A fill given [~like] a symbolic analysis whose input was stamped in
   the same sequence skips the compression and only scatters values. *)
let of_fill ?like ~n fill =
  if n <= 0 then invalid_arg "Sparse.of_fill: n <= 0";
  let s = stamps () in
  fill (fun i j v -> push ~who:"Sparse.of_fill" ~n s i j v 0.0);
  let l = layout_for (Option.map (fun sym -> sym.alayout) like) ~n s in
  {
    n;
    colptr = l.lcolptr;
    rowind = l.lrowind;
    values = scatter l s.sre s.sn;
    layout = l;
  }

let cof_fill ?like ~n fill =
  if n <= 0 then invalid_arg "Sparse.cof_fill: n <= 0";
  let s = stamps () in
  fill (fun i j (v : Cx.t) ->
      push ~who:"Sparse.cof_fill" ~n s i j v.Cx.re v.Cx.im);
  let l = layout_for (Option.map (fun sym -> sym.alayout) like) ~n s in
  {
    cn = n;
    ccolptr = l.lcolptr;
    crowind = l.lrowind;
    vre = scatter l s.sre s.sn;
    vim = scatter l s.sim s.sn;
    clayout = l;
  }

let check_pattern ~who sym ~n ~nnz =
  if n <> sym.n || nnz <> sym.annz then
    invalid_arg (who ^ ": pattern mismatch")

let check_solve ~who n ~b ~x =
  if Array.length b <> n || Array.length x <> n then
    invalid_arg (who ^ ": size mismatch");
  if b == x then invalid_arg (who ^ ": b and x must be distinct")

(* ------------------------------------------------------------------ *)
(* real factorisation                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  sym : symbolic;
  lx : float array;  (* multipliers, aligned with sym.li *)
  ux : float array;  (* aligned with sym.ui *)
  ud : float array;  (* diagonal of U, pivot order *)
}

let symbolic t = t.sym
let lu_nnz t = sym_lu_nnz t.sym

let factor ?(pivot_tol = 0.001) (a : csc) =
  let n = a.n in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  let lp_live = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  let li = bmake 0 and lx = bmake 0.0 in
  let ui = bmake 0 and ux = bmake 0.0 in
  let ud = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  let xi = Array.make n 0 in
  let pstack = Array.make n 0 in
  let mark = Array.make n 0 in
  for j = 0 to n - 1 do
    let top =
      reach ~n ~acolptr:a.colptr ~arowind:a.rowind ~j ~pinv ~lp_live
        ~li_buf:li.a ~mark ~xi ~pstack
    in
    (* numeric: clear, scatter, apply in topological order *)
    for p = top to n - 1 do
      x.(xi.(p)) <- 0.0
    done;
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      x.(a.rowind.(p)) <- a.values.(p)
    done;
    for p = top to n - 1 do
      let i = xi.(p) in
      let t = pinv.(i) in
      if t >= 0 then begin
        let xt = x.(i) in
        bpush ui t;
        bpush ux xt;
        for q = lp_live.(t) to lp_live.(t + 1) - 1 do
          let r = li.a.(q) in
          x.(r) <- x.(r) -. (lx.a.(q) *. xt)
        done
      end
    done;
    (* pivot among the non-pivotal pattern rows *)
    let amax = ref 0.0 and ipiv = ref (-1) in
    for p = top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        let m = Float.abs x.(i) in
        if m > !amax then begin
          amax := m;
          ipiv := i
        end
      end
    done;
    if !ipiv < 0 || not (Float.is_finite !amax) || !amax <= 1e-300 then begin
      Rlc_instr.Health.failure ~kind:"sparse" ~reason:"singular pivot";
      raise Singular
    end;
    (* threshold preference for the diagonal *)
    if
      j <> !ipiv && pinv.(j) < 0 && mark.(j) = j + 1
      && Float.abs x.(j) >= pivot_tol *. !amax
      && Float.abs x.(j) > 1e-300
    then ipiv := j;
    let pivot = x.(!ipiv) in
    ud.(j) <- pivot;
    pinv.(!ipiv) <- j;
    prow.(j) <- !ipiv;
    for p = top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        bpush li i;
        bpush lx (x.(i) /. pivot)
      end;
      x.(i) <- 0.0
    done;
    lp_live.(j + 1) <- li.len;
    up.(j + 1) <- ui.len
  done;
  let sym =
    symbolic_of_pattern ~n ~pinv ~prow ~lp:lp_live ~li ~up ~ui ~annz:(nnz a)
      ~alayout:a.layout
  in
  if Rlc_instr.Metrics.recording () then begin
    let vmax arr len =
      let m = ref 0.0 in
      for k = 0 to len - 1 do
        let v = Float.abs arr.(k) in
        if v > !m then m := v
      done;
      !m
    in
    let amax = vmax a.values (Array.length a.values) in
    let umax = Float.max (vmax ux.a ux.len) (vmax ud n) in
    let dmin = ref infinity and dmax = ref 0.0 in
    Array.iter
      (fun d ->
        let d = Float.abs d in
        if d < !dmin then dmin := d;
        if d > !dmax then dmax := d)
      ud;
    Rlc_instr.Health.observe_factor ~kind:"sparse" ~amax ~umax ~dmin:!dmin
      ~dmax:!dmax
  end;
  { sym; lx = Array.sub lx.a 0 lx.len; ux = Array.sub ux.a 0 ux.len; ud }

let refactor ?(growth_limit = 1e8) sym (a : csc) =
  check_pattern ~who:"Sparse.refactor" sym ~n:a.n ~nnz:(nnz a);
  let { n; pinv; lp; li; up; ui; _ } = sym in
  let lx = Array.make (Array.length li) 0.0 in
  let ux = Array.make (Array.length ui) 0.0 in
  let ud = Array.make n 0.0 in
  let x = Array.make n 0.0 in
  for j = 0 to n - 1 do
    (* the column pattern in pivot coords is ui-col ∪ {j} ∪ li-col,
       and x is kept zero outside it, so scatter needs no clearing *)
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      x.(pinv.(a.rowind.(p))) <- x.(pinv.(a.rowind.(p))) +. a.values.(p)
    done;
    for k = up.(j) to up.(j + 1) - 1 do
      let t = ui.(k) in
      let xt = x.(t) in
      ux.(k) <- xt;
      x.(t) <- 0.0;
      if xt <> 0.0 then
        for q = lp.(t) to lp.(t + 1) - 1 do
          let r = li.(q) in
          x.(r) <- x.(r) -. (lx.(q) *. xt)
        done
    done;
    let pivot = x.(j) in
    x.(j) <- 0.0;
    if (not (Float.is_finite pivot)) || Float.abs pivot <= 1e-300 then begin
      (* leave x clean for the caller's retry *)
      for q = lp.(j) to lp.(j + 1) - 1 do
        x.(li.(q)) <- 0.0
      done;
      if Float.is_finite pivot then raise Repivot else raise Singular
    end;
    ud.(j) <- pivot;
    let lmax = ref 0.0 in
    for q = lp.(j) to lp.(j + 1) - 1 do
      let r = li.(q) in
      let m = x.(r) /. pivot in
      lx.(q) <- m;
      x.(r) <- 0.0;
      let am = Float.abs m in
      if am > !lmax then lmax := am
    done;
    if (not (Float.is_finite !lmax)) || !lmax > growth_limit then raise Repivot
  done;
  { sym; lx; ux; ud }

let solve_into t ~b ~x =
  let { n; prow; lp; li; up; ui; _ } = t.sym in
  check_solve ~who:"Sparse.solve_into" n ~b ~x;
  for k = 0 to n - 1 do
    x.(k) <- b.(prow.(k))
  done;
  for k = 0 to n - 1 do
    let xk = x.(k) in
    if xk <> 0.0 then
      for q = lp.(k) to lp.(k + 1) - 1 do
        x.(li.(q)) <- x.(li.(q)) -. (t.lx.(q) *. xk)
      done
  done;
  for k = n - 1 downto 0 do
    let xk = x.(k) /. t.ud.(k) in
    x.(k) <- xk;
    if xk <> 0.0 then
      for q = up.(k) to up.(k + 1) - 1 do
        x.(ui.(q)) <- x.(ui.(q)) -. (t.ux.(q) *. xk)
      done
  done

(* ------------------------------------------------------------------ *)
(* complex factorisation (split re/im arrays, Cbanded idiom)           *)
(* ------------------------------------------------------------------ *)

type ct = {
  csym : symbolic;
  lre : float array;
  lim : float array;
  ure : float array;
  uim : float array;
  udre : float array;
  udim : float array;
}

let csymbolic t = t.csym
let clu_nnz t = sym_lu_nnz t.csym

let cfactor ?(pivot_tol = 0.001) (a : ccsc) =
  let n = a.cn in
  let pinv = Array.make n (-1) in
  let prow = Array.make n (-1) in
  let lp_live = Array.make (n + 1) 0 in
  let up = Array.make (n + 1) 0 in
  let li = bmake 0 in
  let lre = bmake 0.0 and lim = bmake 0.0 in
  let ui = bmake 0 in
  let ure = bmake 0.0 and uim = bmake 0.0 in
  let udre = Array.make n 0.0 and udim = Array.make n 0.0 in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  let xi = Array.make n 0 in
  let pstack = Array.make n 0 in
  let mark = Array.make n 0 in
  let tol2 = pivot_tol *. pivot_tol in
  for j = 0 to n - 1 do
    let top =
      reach ~n ~acolptr:a.ccolptr ~arowind:a.crowind ~j ~pinv ~lp_live
        ~li_buf:li.a ~mark ~xi ~pstack
    in
    for p = top to n - 1 do
      xre.(xi.(p)) <- 0.0;
      xim.(xi.(p)) <- 0.0
    done;
    for p = a.ccolptr.(j) to a.ccolptr.(j + 1) - 1 do
      xre.(a.crowind.(p)) <- a.vre.(p);
      xim.(a.crowind.(p)) <- a.vim.(p)
    done;
    for p = top to n - 1 do
      let i = xi.(p) in
      let t = pinv.(i) in
      if t >= 0 then begin
        let xtr = xre.(i) and xti = xim.(i) in
        bpush ui t;
        bpush ure xtr;
        bpush uim xti;
        for q = lp_live.(t) to lp_live.(t + 1) - 1 do
          let r = li.a.(q) in
          let lr = lre.a.(q) and lm = lim.a.(q) in
          xre.(r) <- xre.(r) -. ((lr *. xtr) -. (lm *. xti));
          xim.(r) <- xim.(r) -. ((lr *. xti) +. (lm *. xtr))
        done
      end
    done;
    let amax2 = ref 0.0 and ipiv = ref (-1) in
    for p = top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        let m2 = (xre.(i) *. xre.(i)) +. (xim.(i) *. xim.(i)) in
        if m2 > !amax2 then begin
          amax2 := m2;
          ipiv := i
        end
      end
    done;
    if !ipiv < 0 || not (Float.is_finite !amax2) || !amax2 <= 1e-300 then begin
      Rlc_instr.Health.failure ~kind:"csparse" ~reason:"singular pivot";
      raise Singular
    end;
    if j <> !ipiv && pinv.(j) < 0 && mark.(j) = j + 1 then begin
      let d2 = (xre.(j) *. xre.(j)) +. (xim.(j) *. xim.(j)) in
      if d2 >= tol2 *. !amax2 && d2 > 1e-300 then ipiv := j
    end;
    let pr = xre.(!ipiv) and pi = xim.(!ipiv) in
    udre.(j) <- pr;
    udim.(j) <- pi;
    pinv.(!ipiv) <- j;
    prow.(j) <- !ipiv;
    let den = (pr *. pr) +. (pi *. pi) in
    let invr = pr /. den and invi = -.pi /. den in
    for p = top to n - 1 do
      let i = xi.(p) in
      if pinv.(i) < 0 then begin
        bpush li i;
        bpush lre ((xre.(i) *. invr) -. (xim.(i) *. invi));
        bpush lim ((xre.(i) *. invi) +. (xim.(i) *. invr))
      end;
      xre.(i) <- 0.0;
      xim.(i) <- 0.0
    done;
    lp_live.(j + 1) <- li.len;
    up.(j + 1) <- ui.len
  done;
  let csym =
    symbolic_of_pattern ~n ~pinv ~prow ~lp:lp_live ~li ~up ~ui ~annz:(cnnz a)
      ~alayout:a.clayout
  in
  if Rlc_instr.Metrics.recording () then begin
    let vmax2 re im len =
      let m = ref 0.0 in
      for k = 0 to len - 1 do
        let v = (re.(k) *. re.(k)) +. (im.(k) *. im.(k)) in
        if v > !m then m := v
      done;
      Float.sqrt !m
    in
    let amax = vmax2 a.vre a.vim (Array.length a.vre) in
    let umax =
      Float.max (vmax2 ure.a uim.a ure.len) (vmax2 udre udim n)
    in
    let dmin = ref infinity and dmax = ref 0.0 in
    for k = 0 to n - 1 do
      let d = Float.hypot udre.(k) udim.(k) in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d
    done;
    Rlc_instr.Health.observe_factor ~kind:"csparse" ~amax ~umax ~dmin:!dmin
      ~dmax:!dmax
  end;
  {
    csym;
    lre = Array.sub lre.a 0 lre.len;
    lim = Array.sub lim.a 0 lim.len;
    ure = Array.sub ure.a 0 ure.len;
    uim = Array.sub uim.a 0 uim.len;
    udre;
    udim;
  }

let crefactor ?(growth_limit = 1e8) sym (a : ccsc) =
  check_pattern ~who:"Sparse.crefactor" sym ~n:a.cn ~nnz:(cnnz a);
  let { n; pinv; lp; li; up; ui; _ } = sym in
  let lre = Array.make (Array.length li) 0.0 in
  let lim = Array.make (Array.length li) 0.0 in
  let ure = Array.make (Array.length ui) 0.0 in
  let uim = Array.make (Array.length ui) 0.0 in
  let udre = Array.make n 0.0 and udim = Array.make n 0.0 in
  let xre = Array.make n 0.0 and xim = Array.make n 0.0 in
  for j = 0 to n - 1 do
    for p = a.ccolptr.(j) to a.ccolptr.(j + 1) - 1 do
      let r = pinv.(a.crowind.(p)) in
      xre.(r) <- xre.(r) +. a.vre.(p);
      xim.(r) <- xim.(r) +. a.vim.(p)
    done;
    for k = up.(j) to up.(j + 1) - 1 do
      let t = ui.(k) in
      let xtr = xre.(t) and xti = xim.(t) in
      ure.(k) <- xtr;
      uim.(k) <- xti;
      xre.(t) <- 0.0;
      xim.(t) <- 0.0;
      if xtr <> 0.0 || xti <> 0.0 then
        for q = lp.(t) to lp.(t + 1) - 1 do
          let r = li.(q) in
          let lr = lre.(q) and lm = lim.(q) in
          xre.(r) <- xre.(r) -. ((lr *. xtr) -. (lm *. xti));
          xim.(r) <- xim.(r) -. ((lr *. xti) +. (lm *. xtr))
        done
    done;
    let pr = xre.(j) and pi = xim.(j) in
    xre.(j) <- 0.0;
    xim.(j) <- 0.0;
    let den = (pr *. pr) +. (pi *. pi) in
    if (not (Float.is_finite den)) || den <= 1e-300 then begin
      for q = lp.(j) to lp.(j + 1) - 1 do
        xre.(li.(q)) <- 0.0;
        xim.(li.(q)) <- 0.0
      done;
      if Float.is_finite den then raise Repivot else raise Singular
    end;
    udre.(j) <- pr;
    udim.(j) <- pi;
    let invr = pr /. den and invi = -.pi /. den in
    let lmax2 = ref 0.0 in
    for q = lp.(j) to lp.(j + 1) - 1 do
      let r = li.(q) in
      let mr = (xre.(r) *. invr) -. (xim.(r) *. invi) in
      let mi = (xre.(r) *. invi) +. (xim.(r) *. invr) in
      lre.(q) <- mr;
      lim.(q) <- mi;
      xre.(r) <- 0.0;
      xim.(r) <- 0.0;
      let m2 = (mr *. mr) +. (mi *. mi) in
      if m2 > !lmax2 then lmax2 := m2
    done;
    if (not (Float.is_finite !lmax2)) || !lmax2 > growth_limit *. growth_limit
    then raise Repivot
  done;
  { csym = sym; lre; lim; ure; uim; udre; udim }

let csolve_into t ~b ~x =
  let { n; prow; lp; li; up; ui; _ } = t.csym in
  check_solve ~who:"Sparse.csolve_into" n ~b ~x;
  for k = 0 to n - 1 do
    x.(k) <- (b.(prow.(k)) : Cx.t)
  done;
  for k = 0 to n - 1 do
    let xk = x.(k) in
    if xk.Cx.re <> 0.0 || xk.Cx.im <> 0.0 then
      for q = lp.(k) to lp.(k + 1) - 1 do
        let r = li.(q) in
        let xr = x.(r) in
        x.(r) <-
          Cx.make
            (xr.Cx.re -. ((t.lre.(q) *. xk.Cx.re) -. (t.lim.(q) *. xk.Cx.im)))
            (xr.Cx.im -. ((t.lre.(q) *. xk.Cx.im) +. (t.lim.(q) *. xk.Cx.re)))
      done
  done;
  for k = n - 1 downto 0 do
    let xk = x.(k) in
    let pr = t.udre.(k) and pi = t.udim.(k) in
    let den = (pr *. pr) +. (pi *. pi) in
    let vr = ((xk.Cx.re *. pr) +. (xk.Cx.im *. pi)) /. den in
    let vi = ((xk.Cx.im *. pr) -. (xk.Cx.re *. pi)) /. den in
    x.(k) <- Cx.make vr vi;
    if vr <> 0.0 || vi <> 0.0 then
      for q = up.(k) to up.(k + 1) - 1 do
        let r = ui.(q) in
        let xr = x.(r) in
        x.(r) <-
          Cx.make
            (xr.Cx.re -. ((t.ure.(q) *. vr) -. (t.uim.(q) *. vi)))
            (xr.Cx.im -. ((t.ure.(q) *. vi) +. (t.uim.(q) *. vr)))
      done
  done
