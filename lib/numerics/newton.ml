type result = {
  x : float array;
  residual_norm : float;
  iterations : int;
  converged : bool;
}

let norm v = Float.sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v)

module M = Rlc_instr.Metrics

let m_calls = M.counter "newton.calls"
let m_iterations = M.counter "newton.iterations"
let m_residual = M.hist "newton.residual"
let m_diverged = M.counter "newton.diverged"

let clamp ?lower ?upper x =
  let x = Array.copy x in
  (match lower with
  | None -> ()
  | Some lo ->
      Array.iteri (fun i v -> if x.(i) < v then x.(i) <- v) lo);
  (match upper with
  | None -> ()
  | Some hi ->
      Array.iteri (fun i v -> if x.(i) > v then x.(i) <- v) hi);
  x

let solve_ctx ?(max_iter = 60) ?(tol = 1e-10) ?jacobian ?lower ?upper ~ctx
    ~f:fc ~x0 () =
  let f x = fc ctx x in
  let jac =
    match jacobian with
    | Some j -> fun x -> j ctx x
    | None -> fun x -> Fdiff.jacobian f x
  in
  let x = ref (clamp ?lower ?upper x0) in
  let fx = ref (f !x) in
  let r0 = norm !fx in
  let threshold = Float.max (tol *. r0) tol in
  M.incr m_calls;
  let iter = ref 0 in
  let stalled = ref false in
  while (not !stalled) && norm !fx > threshold && !iter < max_iter do
    incr iter;
    M.incr m_iterations;
    M.observe m_residual (norm !fx);
    let step =
      try Some (Lu.solve_matrix (jac !x) (Array.map (fun v -> -.v) !fx))
      with Lu.Singular -> None
    in
    match step with
    | None -> stalled := true
    | Some dx ->
        (* backtracking line search on ||f||^2 *)
        let base = norm !fx in
        let rec search alpha tries =
          if tries = 0 then None
          else begin
            let cand =
              clamp ?lower ?upper
                (Array.mapi (fun i v -> v +. (alpha *. dx.(i))) !x)
            in
            let fc = f cand in
            let n = norm fc in
            if Float.is_nan n || n >= base then search (alpha /. 2.0) (tries - 1)
            else Some (cand, fc)
          end
        in
        (match search 1.0 12 with
        | None -> stalled := true
        | Some (x', fx') ->
            x := x';
            fx := fx')
  done;
  let r = norm !fx in
  let converged = r <= threshold in
  if not converged then begin
    M.incr m_diverged;
    if Rlc_instr.Journal.capturing () then
      Rlc_instr.Journal.record "newton.divergence"
        [
          ("iterations", Rlc_instr.Journal.Int !iter);
          ("residual", Rlc_instr.Journal.Num r);
          ( "detail",
            Rlc_instr.Journal.Str
              (if !stalled then "stalled (singular jacobian or dead line \
                                 search)"
               else "iteration budget exhausted") );
        ];
    Rlc_instr.Health.degraded ~kind:"newton"
      ~reason:(if !stalled then "stalled" else "max iterations")
  end;
  { x = !x; residual_norm = r; iterations = !iter; converged }
