exception No_delay

(* The residual v(t) - f and its slope. *)
let crossing ~f cs =
  if f <= 0.0 || f >= 1.0 then invalid_arg "Delay.of_coeffs: f outside (0,1)";
  if cs.Pade.b1 <= 0.0 || cs.Pade.b2 <= 0.0 then
    invalid_arg "Delay.of_coeffs: non-physical coefficients";
  ((fun t -> Step_response.eval cs t -. f), Step_response.derivative cs)

let polish (residual, slope) lo hi =
  Rlc_numerics.Roots.newton_bracketed ~tol:1e-13 ~f:residual ~df:slope lo hi

let cold cs ((residual, _) as crossing) =
  (* The Elmore-like constant b1 sets the timescale of the rise. *)
  let dt0 = cs.Pade.b1 /. 32.0 in
  let lo, hi =
    try Rlc_numerics.Roots.bracket_first residual ~t0:0.0 ~dt:dt0
    with Rlc_numerics.Roots.No_bracket -> raise No_delay
  in
  if lo = hi then lo else polish crossing lo hi

let of_coeffs ?(f = 0.5) cs = cold cs (crossing ~f cs)

(* v rises monotonically from 0 to its first peak (for all t unless
   underdamped), so a sign change of v - f inside [0, first peak]
   brackets the first crossing and no later one. *)
let of_coeffs_near ?(f = 0.5) cs ~seed =
  let crossing = crossing ~f cs in
  let peak = Option.value (Step_response.peak_time cs) ~default:infinity in
  let lo = 0.75 *. seed and hi = Float.min (1.25 *. seed) peak in
  if not (lo > 0.0 && lo < hi) then cold cs crossing
  else
    try polish crossing lo hi
    with Rlc_numerics.Roots.No_bracket -> cold cs crossing

let of_stage ?f stage = of_coeffs ?f (Pade.coeffs stage)

let per_unit_length ?f stage = of_stage ?f stage /. stage.Stage.h

let elmore_agreement stage =
  let tau_rlc = of_stage stage in
  let tau_rc = of_stage (Stage.with_l stage 0.0) in
  tau_rlc /. tau_rc
