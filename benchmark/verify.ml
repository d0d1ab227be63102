(* Output checks, one per workload.  Each compares against a reference
   computed independently of the path being timed. *)

module W = Rlc_waveform.Waveform

let rel_tol = 1e-9

let close a b =
  a = b || Float.abs (a -. b) <= rel_tol *. Float.max (Float.abs a) (Float.abs b)

(* ---------------- serve ---------------- *)

(* Fields that count things: equal or wrong. *)
let exact_keys = [ "steps"; "n" ]

let field_ok key x y =
  String.equal x y
  || (not (List.mem key exact_keys))
     &&
     match (float_of_string_opt x, float_of_string_opt y) with
     | Some a, Some b -> close a b
     | _ -> false

(* [key=value], or an AC point [freq:mag_db:phase_deg], or a bare word. *)
let token_ok x y =
  match (String.index_opt x '=', String.index_opt y '=') with
  | Some i, Some j ->
      let kx = String.sub x 0 i and ky = String.sub y 0 j in
      String.equal kx ky
      && field_ok kx
           (String.sub x (i + 1) (String.length x - i - 1))
           (String.sub y (j + 1) (String.length y - j - 1))
  | None, None ->
      let fx = String.split_on_char ':' x and fy = String.split_on_char ':' y in
      List.length fx = List.length fy && List.for_all2 (field_ok "") fx fy
  | _ -> false

let is_err line = String.length line >= 4 && String.sub line 0 4 = "err "

(* A served result line against the line a cache-disabled service gave
   for the same job: numeric fields to 1e-9 relative, everything else
   exactly.  An [err] line on either side is a failure. *)
let serve_line_ok ~reference line =
  (not (is_err line))
  && (not (is_err reference))
  &&
  let tx = String.split_on_char ' ' reference
  and ty = String.split_on_char ' ' line in
  List.length tx = List.length ty && List.for_all2 token_ok tx ty

(* ---------------- optimize-hk ---------------- *)

let neighbours = [ (1.001, 1.0); (0.999, 1.0); (1.0, 1.001); (1.0, 0.999) ]

(* The reported tau/h must be the objective at the reported (h, k), and
   no point 0.1% away in h or in k may be lower. *)
let optimum_ok ~objective ~h ~k ~reported =
  let v = objective ~h ~k in
  close v reported
  && List.for_all
       (fun (dh, dk) -> not (objective ~h:(h *. dh) ~k:(k *. dk) < v))
       neighbours

(* ---------------- transient-ladder ---------------- *)

let budget_pct = 5.0

let swing w =
  let v = W.values w in
  Array.fold_left Float.max neg_infinity v -. Array.fold_left Float.min infinity v

(* max |v - v_ref(t)| over the samples of [w], in % of the reference
   swing; the reference is interpolated linearly between its points
   (one merge pass: both time axes ascend). *)
let wave_err_pct ~reference w =
  let rt = W.times reference and rv = W.values reference in
  let last = Array.length rt - 1 in
  let j = ref 0 and e = ref 0.0 in
  W.iter
    (fun t v ->
      while !j < last - 1 && rt.(!j + 1) < t do
        incr j
      done;
      let r =
        if last = 0 || t <= rt.(0) then rv.(0)
        else if t >= rt.(last) then rv.(last)
        else
          let a = !j in
          let s = (t -. rt.(a)) /. (rt.(a + 1) -. rt.(a)) in
          ((1.0 -. s) *. rv.(a)) +. (s *. rv.(a + 1))
      in
      e := Float.max !e (Float.abs (v -. r)))
    w;
  100.0 *. !e /. swing reference

let wave_ok ~reference w = wave_err_pct ~reference w <= budget_pct

(* A fixed-step reference is trusted only when doubling its step moves it
   by less than a tenth of the budget. *)
let reference_ok ~fine ~coarse =
  wave_err_pct ~reference:fine coarse < budget_pct /. 10.0
