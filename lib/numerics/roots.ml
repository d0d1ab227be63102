exception No_bracket
exception No_convergence of string

let default_tol = 1e-12

module M = Rlc_instr.Metrics

let m_calls = M.counter "roots.calls"
let m_iterations = M.counter "roots.iterations"
let m_residual = M.hist "roots.residual"

let check_bracket name fa fb =
  if fa *. fb > 0.0 then
    raise No_bracket
  else if Float.is_nan fa || Float.is_nan fb then
    raise (No_convergence (name ^ ": NaN at bracket endpoint"))

let bisect ?(tol = default_tol) ?(max_iter = 200) f a b =
  M.incr m_calls;
  let fa = f a and fb = f b in
  check_bracket "bisect" fa fb;
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else begin
    let lo = ref a and hi = ref b and flo = ref fa in
    let result = ref nan in
    let iter = ref 0 in
    while Float.is_nan !result do
      incr iter;
      if !iter > max_iter then raise (No_convergence "bisect");
      let mid = 0.5 *. (!lo +. !hi) in
      let fmid = f mid in
      M.incr m_iterations;
      M.observe m_residual (Float.abs fmid);
      if fmid = 0.0 || (!hi -. !lo) /. 2.0 < tol *. (1.0 +. Float.abs mid)
      then result := mid
      else if !flo *. fmid < 0.0 then hi := mid
      else begin
        lo := mid;
        flo := fmid
      end
    done;
    !result
  end

(* Brent's method, following the classic Numerical Recipes formulation. *)
let brent ?(tol = default_tol) ?(max_iter = 200) f a b =
  M.incr m_calls;
  let fa = f a and fb = f b in
  check_bracket "brent" fa fb;
  let a = ref a and b = ref b and c = ref a in
  let fa = ref fa and fb = ref fb and fc = ref fa in
  let d = ref 0.0 and e = ref 0.0 in
  let result = ref nan in
  let iter = ref 0 in
  while Float.is_nan !result do
    incr iter;
    if !iter > max_iter then raise (No_convergence "brent");
    M.incr m_iterations;
    M.observe m_residual (Float.abs !fb);
    if (!fb > 0.0 && !fc > 0.0) || (!fb < 0.0 && !fc < 0.0) then begin
      c := !a;
      fc := !fa;
      d := !b -. !a;
      e := !d
    end;
    if Float.abs !fc < Float.abs !fb then begin
      a := !b;
      b := !c;
      c := !a;
      fa := !fb;
      fb := !fc;
      fc := !fa
    end;
    let tol1 = (2.0 *. epsilon_float *. Float.abs !b) +. (0.5 *. tol) in
    let xm = 0.5 *. (!c -. !b) in
    if Float.abs xm <= tol1 || !fb = 0.0 then result := !b
    else begin
      if Float.abs !e >= tol1 && Float.abs !fa > Float.abs !fb then begin
        let s = !fb /. !fa in
        let p, q =
          if !a = !c then
            let p = 2.0 *. xm *. s in
            let q = 1.0 -. s in
            (p, q)
          else begin
            let q = !fa /. !fc and r = !fb /. !fc in
            let p =
              s *. ((2.0 *. xm *. q *. (q -. r)) -. ((!b -. !a) *. (r -. 1.0)))
            in
            let q = (q -. 1.0) *. (r -. 1.0) *. (s -. 1.0) in
            (p, q)
          end
        in
        let p, q = if p > 0.0 then (p, -.q) else (-.p, q) in
        let min1 = (3.0 *. xm *. q) -. Float.abs (tol1 *. q) in
        let min2 = Float.abs (!e *. q) in
        if 2.0 *. p < Float.min min1 min2 then begin
          e := !d;
          d := p /. q
        end
        else begin
          d := xm;
          e := !d
        end
      end
      else begin
        d := xm;
        e := !d
      end;
      a := !b;
      fa := !fb;
      if Float.abs !d > tol1 then b := !b +. !d
      else b := !b +. Float.copy_sign tol1 xm;
      fb := f !b
    end
  done;
  !result

let newton ?(tol = default_tol) ?(max_iter = 50) ~f ~df x0 =
  M.incr m_calls;
  let rec go x fx iter =
    if iter > max_iter then raise (No_convergence "newton");
    M.incr m_iterations;
    M.observe m_residual (Float.abs fx);
    let dfx = df x in
    if Float.abs dfx < 1e-300 then raise (No_convergence "newton: flat slope");
    let step = fx /. dfx in
    (* halve the step until the residual shrinks (simple damping); each
       trial point is evaluated once, and the accepted one's residual is
       carried into the next iteration *)
    let rec damp s tries =
      let x' = x -. s in
      let fx' = f x' in
      if tries = 0 || Float.abs fx' <= Float.abs fx then (x', fx')
      else damp (s /. 2.0) (tries - 1)
    in
    let x', fx' = damp step 8 in
    if Float.abs (x' -. x) <= tol *. (1.0 +. Float.abs x') then x'
    else go x' fx' (iter + 1)
  in
  go x0 (f x0) 0

let newton_bracketed ?(tol = default_tol) ?(max_iter = 100) ~f ~df lo hi =
  M.incr m_calls;
  let flo = f lo and fhi = f hi in
  check_bracket "newton_bracketed" flo fhi;
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else begin
    (* Keep (lo, hi) a valid bracket; try Newton from the midpoint and
       fall back to bisection when the step escapes. *)
    (* tolerance is relative to the PROBLEM scale (initial bracket and
       endpoint magnitudes), not to 1.0 -- the delay solver works in
       seconds where roots are ~1e-10 *)
    let scale =
      Float.max (Float.abs (hi -. lo))
        (Float.max (Float.abs lo) (Float.abs hi))
    in
    let step_tol = tol *. Float.max scale Float.min_float in
    let lo = ref lo and hi = ref hi and flo = ref flo in
    let x = ref (0.5 *. (!lo +. !hi)) in
    let result = ref nan in
    let iter = ref 0 in
    while Float.is_nan !result do
      incr iter;
      if !iter > max_iter then raise (No_convergence "newton_bracketed");
      let fx = f !x in
      M.incr m_iterations;
      M.observe m_residual (Float.abs fx);
      if fx = 0.0 then result := !x
      else begin
        if !flo *. fx < 0.0 then hi := !x
        else begin
          lo := !x;
          flo := fx
        end;
        let dfx = df !x in
        let x' =
          if Float.abs dfx < 1e-300 then 0.5 *. (!lo +. !hi)
          else
            let cand = !x -. (fx /. dfx) in
            if cand <= !lo || cand >= !hi then 0.5 *. (!lo +. !hi) else cand
        in
        if Float.abs (x' -. !x) <= step_tol || !hi -. !lo <= step_tol then
          result := x'
        else x := x'
      end
    done;
    !result
  end

let bracket_first ?(grow = 1.3) ?(max_steps = 500) f ~t0 ~dt =
  if dt <= 0.0 then invalid_arg "Roots.bracket_first: dt must be positive";
  let rec go t ft step n =
    if n > max_steps then raise No_bracket;
    let t' = t +. step in
    let ft' = f t' in
    if ft *. ft' <= 0.0 then (t, t') else go t' ft' (step *. grow) (n + 1)
  in
  let ft0 = f t0 in
  if ft0 = 0.0 then (t0, t0) else go t0 ft0 dt 0
