open Rlc_numerics
open Rlc_circuit

type model = {
  order : int;
  g_r : Matrix.t;
  c_r : Matrix.t;
  b_r : float array;
  l_r : float array;
  poles : Cx.t array;
  residues : Cx.t array;
  step_weights : Cx.t array; (* residues.(i) / poles.(i) *)
  dc : float;
  stable : bool;
}

let ( +: ) = Cx.( +: )
let ( *: ) = Cx.( *: )
let ( /: ) = Cx.( /: )

(* ---------------- fast solves with G ----------------

   The Krylov recurrence applies G^-1 many times; the factorisation
   comes straight from the stamp IR under the shared structure plan
   (RCM + banded-when-narrow), so PRIMA, the transient
   engine and the AC path all make the same backend choice from the
   same analysis. *)

let make_g_solver asm =
  let f =
    try Assembly.factor_g asm
    with Solver.Singular ->
      failwith "Prima: singular G matrix"
  in
  fun b -> Assembly.solve_g asm f b

(* ---------------- projection ---------------- *)

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* V^T M V for a sparse M and the Krylov basis V (columns as rows of
   [v]); one mat-vec per column. *)
let project m v =
  let q = Array.length v in
  let r = Matrix.create q q in
  Array.iteri
    (fun j vj ->
      let mvj = Assembly.Coo.mul_vec m vj in
      for i = 0 to q - 1 do
        Matrix.set r i j (dot v.(i) mvj)
      done)
    v;
  r

(* ---------------- poles and residues ---------------- *)

(* Right/left null vectors of the (numerically singular) complex pencil
   M = G_r + p C_r by inverse iteration: a couple of applications of
   M^-1 to a fixed start vector align it with the null direction. *)
let null_vector lu q =
  let x = ref (Array.init q (fun i -> Cx.make 1.0 (0.1 *. float_of_int (i + 1)))) in
  for _ = 1 to 3 do
    let y = Clu.solve lu !x in
    let scale =
      Float.sqrt (Array.fold_left (fun a z -> a +. Cx.norm2 z) 0.0 y)
    in
    if scale > 0.0 && Float.is_finite scale then
      x := Array.map (Cx.scale (1.0 /. scale)) y
  done;
  !x

let cx_dot a b =
  (* bilinear (no conjugation): the pencil identities are transpose
     identities, not Hermitian ones *)
  let acc = ref Cx.zero in
  for i = 0 to Array.length a - 1 do
    acc := !acc +: (a.(i) *: b.(i))
  done;
  !acc

let pencil g_r c_r p =
  let q = Matrix.rows g_r in
  Cmatrix.init q q (fun i j ->
      Cx.of_float (Matrix.get g_r i j)
      +: (p *: Cx.of_float (Matrix.get c_r i j)))

let residue_at g_r c_r b_r l_r p =
  let q = Matrix.rows g_r in
  let pencil_t p =
    Cmatrix.init q q (fun i j ->
        Cx.of_float (Matrix.get g_r j i)
        +: (p *: Cx.of_float (Matrix.get c_r j i)))
  in
  (* the pencil is exactly singular at the pole; nudge off it until
     both the pencil and its transpose factor at the same point *)
  let rec decompose_near p attempt =
    match (Clu.decompose (pencil g_r c_r p), Clu.decompose (pencil_t p)) with
    | lu, lu_t -> (lu, lu_t)
    | exception Solver.Singular ->
        if attempt > 3 then raise Solver.Singular
        else decompose_near (p *: Cx.make (1.0 +. 1e-10) 1e-10) (attempt + 1)
  in
  let lu, lu_t = decompose_near p 0 in
  let x = null_vector lu q in
  (* left null vector: y^T M = 0  <=>  M^T y = 0 *)
  let y = null_vector lu_t q in
  let cx_vec = Array.map Cx.of_float in
  let cx_mul_vec m v =
    Array.init (Matrix.rows m) (fun i ->
        let acc = ref Cx.zero in
        for j = 0 to Matrix.cols m - 1 do
          acc := !acc +: (Cx.of_float (Matrix.get m i j) *: v.(j))
        done;
        !acc)
  in
  let num = cx_dot (cx_vec l_r) x *: cx_dot y (cx_vec b_r) in
  let den = cx_dot y (cx_mul_vec c_r x) in
  num /: den

let spectrum g_r c_r b_r l_r ~dc =
  let q = Matrix.rows g_r in
  let lu = Lu.decompose (Matrix.copy g_r) in
  (* A_r = G_r^-1 C_r, column by column *)
  let a = Matrix.create q q in
  for j = 0 to q - 1 do
    let col = Array.init q (fun i -> Matrix.get c_r i j) in
    let x = Lu.solve lu col in
    for i = 0 to q - 1 do
      Matrix.set a i j x.(i)
    done
  done;
  let lambdas = Eig.eigenvalues a in
  let lmax =
    Array.fold_left (fun acc z -> Float.max acc (Cx.norm z)) 0.0 lambdas
  in
  (* eigenvalues at (numerical) zero are poles at infinity: artefacts
     of incidence rows, not dynamics *)
  let finite =
    Array.of_list
      (List.filter
         (fun z -> Cx.norm z > 1e-12 *. lmax)
         (Array.to_list lambdas))
  in
  let poles = Array.map (fun z -> Cx.neg (Cx.inv z)) finite in
  let residues = Array.map (residue_at g_r c_r b_r l_r) poles in
  (* Unobservable/uncontrollable basis modes sit in the common null
     space of G_r + G_r^T and C_r: their pole position is a 0/0 and can
     land anywhere (even in the right half-plane), but their residue is
     roundoff.  Keep only poles whose step-response weight |rho/p| is
     non-negligible against the dc level — a spurious RHP pole would
     otherwise overflow exp(p t) in [step_eval]. *)
  let weight i = Cx.norm (residues.(i) /: poles.(i)) in
  let wmax =
    Array.fold_left
      (fun acc (i : int) -> Float.max acc (weight i))
      (Float.abs dc)
      (Array.init (Array.length poles) Fun.id)
  in
  let keep =
    List.filter
      (fun i -> weight i > 1e-9 *. wmax)
      (List.init (Array.length poles) Fun.id)
  in
  ( Array.of_list (List.map (fun i -> poles.(i)) keep),
    Array.of_list (List.map (fun i -> residues.(i)) keep) )

(* ---------------- public API ---------------- *)

let m_moments = Rlc_instr.Metrics.counter "prima.moments"

let reduce ~order asm ~node =
  if order < 1 then invalid_arg "Prima.reduce: order < 1";
  let k = Assembly.probe ~ctx:"Prima.reduce" asm node in
  Rlc_instr.Span.with_ "prima.reduce" (fun () ->
      let solve_g = make_g_solver asm in
      let b_col = Assembly.b_column asm 0 in
      let r0 = solve_g b_col in
      let mul v =
        Rlc_instr.Metrics.incr m_moments;
        Rlc_instr.Span.with_ "prima.moment" (fun () ->
            solve_g (Assembly.Coo.mul_vec asm.Assembly.c v))
      in
      let v =
        Rlc_instr.Span.with_ "prima.krylov" (fun () ->
            Arnoldi.block ~mul ~start:[| r0 |] order)
      in
      let q = Array.length v in
      let g_r, c_r =
        Rlc_instr.Span.with_ "prima.project" (fun () ->
            (project asm.Assembly.g v, project asm.Assembly.c v))
      in
      let b_r = Array.map (fun vi -> dot vi b_col) v in
      let l_r = Array.map (fun vi -> vi.(k)) v in
      let dc =
        let lu = Lu.decompose (Matrix.copy g_r) in
        dot l_r (Lu.solve lu b_r)
      in
      let poles, residues =
        Rlc_instr.Span.with_ "prima.spectrum" (fun () ->
            spectrum g_r c_r b_r l_r ~dc)
      in
      let stable = Array.for_all (fun p -> Cx.re p < 0.0) poles in
      let step_weights = Array.map2 ( /: ) residues poles in
      { order = q; g_r; c_r; b_r; l_r; poles; residues; step_weights; dc; stable })

let eval m s =
  let q = m.order in
  let lu = Clu.decompose (pencil m.g_r m.c_r s) in
  let x = Clu.solve lu (Array.map Cx.of_float m.b_r) in
  let acc = ref Cx.zero in
  for i = 0 to q - 1 do
    acc := !acc +: Cx.scale m.l_r.(i) x.(i)
  done;
  !acc

(* dc + sum of Re (rho/p exp (p t)): the real part of [Cx.mul] of
   rho/p and [Cx.exp] of t p, written out in floats so that nothing is
   boxed *)
let step_eval m t =
  if t < 0.0 then 0.0
  else begin
    let acc = ref m.dc in
    for i = 0 to Array.length m.poles - 1 do
      let p = m.poles.(i) and w = m.step_weights.(i) in
      let e = Float.exp (t *. p.Cx.re) in
      let c = e *. Float.cos (t *. p.Cx.im) and s = e *. Float.sin (t *. p.Cx.im) in
      acc := !acc +. ((w.Cx.re *. c) -. (w.Cx.im *. s))
    done;
    !acc
  end

let bode m ~freqs =
  Array.map
    (fun f ->
      Ac.point_of ~freq:f (eval m (Cx.make 0.0 (2.0 *. Float.pi *. f))))
    freqs
