(* Sherman-Morrison-Woodbury rank-k updates over Solver factors.

   The identity used throughout (D = diag scale, Z = A^-1 U):

     (A + U D V^T) x = b
     x = x0 - Z D t,   (I + V^T Z D) t = V^T x0,   x0 = A^-1 b

   so the k x k capacitance matrix is S_ij = delta_ij + scale_j
   (v_i^T z_j) and one updated solve costs k dot products, one tiny
   dense solve and one axpy sweep on top of the base solve. *)

module M = Rlc_instr.Metrics

let m_make = M.counter "update.make"
let m_apply = M.counter "update.apply"
let m_rank = M.gauge "update.rank"
let m_cond = M.gauge "update.condition"

(* distribution of capacitance-matrix condition estimates — the gauge
   above only keeps the latest, which hides intermittent spikes *)
let m_cond_h = M.hist "update.condition_est"

exception Singular

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* 1-norm (max column sum of moduli) of a k x k matrix given as an
   entry accessor — exact, the matrices here are tiny. *)
let one_norm k entry =
  let worst = ref 0.0 in
  for j = 0 to k - 1 do
    let col = ref 0.0 in
    for i = 0 to k - 1 do
      col := !col +. entry i j
    done;
    if !col > !worst then worst := !col
  done;
  !worst

type t = {
  rank : int;
  plan : Solver.plan;
  factor : Solver.factor;
  z : float array array;
  v : float array array;
  scale : float array;
  s_lu : Lu.t option;  (* None at rank 0 *)
  condition : float;
}

(* shape checks and bookkeeping shared by [make] and [cmake] *)
let check_columns ~who ~what ~n ~k cols =
  if Array.length cols <> k then
    invalid_arg (Printf.sprintf "%s: %s has %d columns, expected %d"
                   who what (Array.length cols) k);
  Array.iter
    (fun c ->
      if Array.length c <> n then
        invalid_arg (Printf.sprintf "%s: %s column length %d <> n=%d"
                       who what (Array.length c) n))
    cols

let check_scale ~who ~k ~one = function
  | None -> Array.make k one
  | Some s ->
      if Array.length s <> k then invalid_arg (who ^ ": scale length mismatch");
      s

let record_make ~k ~condition =
  if M.recording () then begin
    M.incr m_make;
    M.set m_rank (float_of_int k);
    M.set m_cond (Float.min condition 1e18);
    if k > 0 then M.observe m_cond_h condition
  end

let make ?z ?scale plan factor ~u ~v =
  let n = plan.Solver.n in
  let k = Array.length u in
  let who = "Update.make" in
  check_columns ~who ~what:"u" ~n ~k u;
  check_columns ~who ~what:"v" ~n ~k v;
  let scale = check_scale ~who ~k ~one:1.0 scale in
  let z =
    match z with
    | Some z ->
        check_columns ~who ~what:"z" ~n ~k z;
        z
    | None -> Array.map (fun ui -> Solver.solve plan factor ui) u
  in
  let s_lu, condition =
    if k = 0 then (None, 1.0)
    else begin
      let s = Matrix.create k k in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          let vij = scale.(j) *. dot v.(i) z.(j) in
          Matrix.set s i j (if i = j then 1.0 +. vij else vij)
        done
      done;
      let lu =
        try Lu.decompose s
        with Solver.Singular ->
          Rlc_instr.Health.failure ~kind:"smw"
            ~reason:"singular capacitance matrix";
          raise Singular
      in
      let s_inv = Lu.inverse lu in
      let norm m = one_norm k (fun i j -> Float.abs (Matrix.get m i j)) in
      (Some lu, norm s *. norm s_inv)
    end
  in
  record_make ~k ~condition;
  { rank = k; plan; factor; z; v; scale; s_lu; condition }

let rank t = t.rank
let condition t = t.condition

let apply t ~x0 ~x =
  let n = t.plan.Solver.n in
  if Array.length x0 <> n || Array.length x <> n then
    invalid_arg "Update.apply: vector length mismatch";
  if M.recording () then M.incr m_apply;
  match t.s_lu with
  | None -> if x != x0 then Array.blit x0 0 x 0 n
  | Some lu ->
      (* read all of x0 (the dot products) before any write to x —
         the two arrays may alias *)
      let rhs = Array.map (fun vi -> dot vi x0) t.v in
      let w = Lu.solve lu rhs in
      for r = 0 to n - 1 do
        let acc = ref 0.0 in
        for i = 0 to t.rank - 1 do
          acc := !acc +. (t.scale.(i) *. w.(i) *. t.z.(i).(r))
        done;
        x.(r) <- x0.(r) -. !acc
      done

let solve t b =
  let x0 = Solver.solve t.plan t.factor b in
  apply t ~x0 ~x:x0;
  x0

(* Complex twin — same algebra over Cx (plain transpose, no
   conjugation: Woodbury is an algebraic identity). *)

open Cx

let cdot a b =
  let acc = ref Cx.zero in
  for i = 0 to Array.length a - 1 do
    acc := !acc +: (a.(i) *: b.(i))
  done;
  !acc

type ct = {
  crank_ : int;
  cplan : Solver.plan;
  cfactor_ : Solver.cfactor;
  cz : Cx.t array array;
  cv : Cx.t array array;
  cscale : Cx.t array;
  cs_lu : Clu.t option;
  ccondition_ : float;
}

let cmake ?z ?scale plan factor ~u ~v =
  let n = plan.Solver.n in
  let k = Array.length u in
  let who = "Update.cmake" in
  check_columns ~who ~what:"u" ~n ~k u;
  check_columns ~who ~what:"v" ~n ~k v;
  let scale = check_scale ~who ~k ~one:Cx.one scale in
  let z =
    match z with
    | Some z ->
        check_columns ~who ~what:"z" ~n ~k z;
        z
    | None -> Array.map (fun ui -> Solver.csolve plan factor ui) u
  in
  let cs_lu, condition =
    if k = 0 then (None, 1.0)
    else begin
      let s = Cmatrix.create k k in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          let vij = scale.(j) *: cdot v.(i) z.(j) in
          Cmatrix.set s i j (if i = j then Cx.one +: vij else vij)
        done
      done;
      let lu =
        try Clu.decompose s
        with Solver.Singular ->
          Rlc_instr.Health.failure ~kind:"smw"
            ~reason:"singular capacitance matrix";
          raise Singular
      in
      (* Clu has no inverse: recover S^-1 column by column — S is
         k x k with k a handful. *)
      let inv_cols =
        Array.init k (fun j ->
            let e = Array.make k Cx.zero in
            e.(j) <- Cx.one;
            Clu.solve lu e)
      in
      let norm_s = one_norm k (fun i j -> Cx.norm (Cmatrix.get s i j)) in
      let norm_inv = one_norm k (fun i j -> Cx.norm inv_cols.(j).(i)) in
      (Some lu, norm_s *. norm_inv)
    end
  in
  record_make ~k ~condition;
  { crank_ = k; cplan = plan; cfactor_ = factor; cz = z; cv = v;
    cscale = scale; cs_lu; ccondition_ = condition }

let crank t = t.crank_
let ccondition t = t.ccondition_

let capply t ~x0 ~x =
  let n = t.cplan.Solver.n in
  if Array.length x0 <> n || Array.length x <> n then
    invalid_arg "Update.capply: vector length mismatch";
  if M.recording () then M.incr m_apply;
  match t.cs_lu with
  | None -> if x != x0 then Array.blit x0 0 x 0 n
  | Some lu ->
      let rhs = Array.map (fun vi -> cdot vi x0) t.cv in
      let w = Clu.solve lu rhs in
      for r = 0 to n - 1 do
        let acc = ref Cx.zero in
        for i = 0 to t.crank_ - 1 do
          acc := !acc +: (t.cscale.(i) *: w.(i) *: t.cz.(i).(r))
        done;
        x.(r) <- x0.(r) -: !acc
      done

let csolve t b =
  let x0 = Solver.csolve t.cplan t.cfactor_ b in
  capply t ~x0 ~x:x0;
  x0
