type result = {
  x : float array;
  fx : float;
  iterations : int;
  converged : bool;
}

let guard f x =
  let v = f x in
  if Float.is_nan v then infinity else v

module M = Rlc_instr.Metrics

let m_calls = M.counter "nelder_mead.calls"
let m_iterations = M.counter "nelder_mead.iterations"
let m_spread = M.hist "nelder_mead.fspread"
let m_diverged = M.counter "nelder_mead.diverged"

let minimize_ctx ?(max_iter = 2000) ?(ftol = 1e-12) ?(xtol = 1e-10)
    ?(initial_step = 0.05) ~ctx ~f:fc ~x0 () =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Nelder_mead.minimize_ctx: empty x0";
  let f = guard (fun x -> fc ctx x) in
  (* simplex of n+1 vertices *)
  let vertices =
    Array.init (n + 1) (fun i ->
        let v = Array.copy x0 in
        if i > 0 then begin
          let j = i - 1 in
          let d = initial_step *. (1.0 +. Float.abs v.(j)) in
          v.(j) <- v.(j) +. d
        end;
        v)
  in
  let values = Array.map f vertices in
  let order () =
    let idx = Array.init (n + 1) (fun i -> i) in
    Array.sort (fun a b -> Float.compare values.(a) values.(b)) idx;
    idx
  in
  let centroid exclude =
    let c = Array.make n 0.0 in
    Array.iteri
      (fun i v ->
        if i <> exclude then
          Array.iteri (fun j x -> c.(j) <- c.(j) +. x) v)
      vertices;
    Array.map (fun x -> x /. float_of_int n) c
  in
  let combine a alpha b beta =
    Array.init n (fun j -> (alpha *. a.(j)) +. (beta *. b.(j)))
  in
  M.incr m_calls;
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < max_iter do
    incr iter;
    M.incr m_iterations;
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let fbest = values.(best) and fworst = values.(worst) in
    (* convergence: spread of values and vertex coordinates *)
    let fspread = Float.abs (fworst -. fbest) in
    M.observe m_spread fspread;
    let xspread =
      Array.fold_left
        (fun acc v ->
          let d = ref 0.0 in
          Array.iteri
            (fun j x -> d := Float.max !d (Float.abs (x -. vertices.(best).(j))))
            v;
          Float.max acc !d)
        0.0 vertices
    in
    if
      fspread <= ftol *. (1.0 +. Float.abs fbest)
      && xspread
         <= xtol
            *. (1.0
               +. Array.fold_left
                    (fun a x -> Float.max a (Float.abs x))
                    0.0 vertices.(best))
    then converged := true
    else begin
      let c = centroid worst in
      let xw = vertices.(worst) in
      let reflect = combine c 2.0 xw (-1.0) in
      let freflect = f reflect in
      if freflect < fbest then begin
        let expand = combine c 3.0 xw (-2.0) in
        let fexpand = f expand in
        if fexpand < freflect then begin
          vertices.(worst) <- expand;
          values.(worst) <- fexpand
        end
        else begin
          vertices.(worst) <- reflect;
          values.(worst) <- freflect
        end
      end
      else if freflect < values.(second_worst) then begin
        vertices.(worst) <- reflect;
        values.(worst) <- freflect
      end
      else begin
        let contract =
          if freflect < fworst then combine c 1.5 xw (-0.5) (* outside *)
          else combine c 0.5 xw 0.5 (* inside *)
        in
        let fcontract = f contract in
        if fcontract < Float.min freflect fworst then begin
          vertices.(worst) <- contract;
          values.(worst) <- fcontract
        end
        else
          (* shrink towards best *)
          Array.iteri
            (fun i v ->
              if i <> best then begin
                let shrunk = combine vertices.(best) 0.5 v 0.5 in
                vertices.(i) <- shrunk;
                values.(i) <- f shrunk
              end)
            vertices
      end
    end
  done;
  let idx = order () in
  let best = idx.(0) in
  if not !converged then begin
    M.incr m_diverged;
    if Rlc_instr.Journal.capturing () then
      Rlc_instr.Journal.record "nelder_mead.divergence"
        [
          ("iterations", Rlc_instr.Journal.Int !iter);
          ( "fspread",
            Rlc_instr.Journal.Num
              (Float.abs (values.(idx.(n)) -. values.(best))) );
        ];
    Rlc_instr.Health.degraded ~kind:"nelder_mead" ~reason:"max iterations"
  end;
  {
    x = Array.copy vertices.(best);
    fx = values.(best);
    iterations = !iter;
    converged = !converged;
  }
