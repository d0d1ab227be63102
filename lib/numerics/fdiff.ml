let default_rel = 1e-6

let step_for rel_step x = rel_step *. (1.0 +. Float.abs x)

let central ?(rel_step = default_rel) f x =
  let h = step_for rel_step x in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let forward ?(rel_step = default_rel) f x =
  let h = step_for rel_step x in
  (f (x +. h) -. f x) /. h

let partial ?(rel_step = default_rel) f x i =
  let h = step_for rel_step x.(i) in
  let at v =
    let x' = Array.copy x in
    x'.(i) <- v;
    f x'
  in
  (at (x.(i) +. h) -. at (x.(i) -. h)) /. (2.0 *. h)

let gradient ?rel_step f x =
  Array.init (Array.length x) (fun i -> partial ?rel_step f x i)

let jacobian ?(rel_step = default_rel) f x =
  let n = Array.length x in
  let column j =
    let h = step_for rel_step x.(j) in
    let at v =
      let x' = Array.copy x in
      x'.(j) <- v;
      f x'
    in
    let fp = at (x.(j) +. h) and fm = at (x.(j) -. h) in
    Array.mapi (fun i p -> (p -. fm.(i)) /. (2.0 *. h)) fp
  in
  (* the output length comes from the perturbed evaluations: [f x]
     itself is evaluated only when there is no column to learn it from *)
  let cols = Array.init n column in
  let m = if n = 0 then Array.length (f x) else Array.length cols.(0) in
  let jac = Matrix.create m n in
  Array.iteri
    (fun j col -> Array.iteri (fun i v -> Matrix.set jac i j v) col)
    cols;
  jac
