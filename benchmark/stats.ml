(* Exact order statistics over raw samples. *)

type percentile = {
  value : float;  (** the sample at nearest rank ceil(q n) *)
  n : int;  (** sample count *)
  beyond : int;  (** samples ranked above [value] *)
}

let min_beyond = 10

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of an already sorted array.  Refused ([None])
   unless at least [min_beyond] samples lie beyond it: a tail estimate
   resting on fewer cannot resolve a 10% change. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = Int.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then None
  else Some { value = sorted.(rank - 1); n; beyond }

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0.0 a

(* Plain median, never refused: set-up times, per-kind job times, spreads. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* (max - min) / median: the run-to-run spread [repeat] holds against
   each metric's bound. *)
let spread a =
  let s = sorted a in
  let n = Array.length s in
  if n < 2 then 0.0
  else
    let m = median s in
    if m = 0.0 then (if s.(n - 1) = s.(0) then 0.0 else infinity)
    else (s.(n - 1) -. s.(0)) /. Float.abs m
