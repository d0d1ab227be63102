type direction = Rising | Falling | Either

let accepts direction y0 y1 =
  match direction with
  | Rising -> y1 > y0
  | Falling -> y1 < y0
  | Either -> true

let crossings ?(direction = Either) w ~level =
  let ts = Waveform.times w and ys = Waveform.values w in
  let acc = ref [] in
  for i = 0 to Array.length ts - 2 do
    let d0 = ys.(i) -. level and d1 = ys.(i + 1) -. level in
    if d0 *. d1 < 0.0 && accepts direction ys.(i) ys.(i + 1) then
      acc :=
        Rlc_numerics.Interp.crossing ~x0:ts.(i) ~y0:ys.(i) ~x1:ts.(i + 1)
          ~y1:ys.(i + 1) ~level
        :: !acc
    else if d0 = 0.0 && d1 <> 0.0 && accepts direction ys.(i) ys.(i + 1) then
      acc := ts.(i) :: !acc
  done;
  List.rev !acc

let first_crossing ?direction w ~level =
  match crossings ?direction w ~level with [] -> None | t :: _ -> Some t

let threshold_delay w ~fraction ~v_final =
  if fraction < 0.0 || fraction >= 1.0 then
    invalid_arg "Measure.threshold_delay: fraction must be in [0,1)";
  let level = fraction *. v_final in
  let direction = if v_final >= 0.0 then Rising else Falling in
  match first_crossing ~direction w ~level with
  | Some t -> Some (t -. Waveform.t_start w)
  | None -> None

let overshoot w ~v_final =
  Float.max 0.0 (Rlc_numerics.Stats.max (Waveform.values w) -. v_final)

let undershoot_below w ~floor =
  Float.max 0.0 (floor -. Rlc_numerics.Stats.min (Waveform.values w))

let settling_time w ~v_final ~band =
  let tol = band *. Float.abs v_final in
  let ts = Waveform.times w and ys = Waveform.values w in
  let n = Array.length ts in
  (* walk backwards to find the last sample outside the band *)
  let rec last_outside i =
    if i < 0 then None
    else if Float.abs (ys.(i) -. v_final) > tol then Some i
    else last_outside (i - 1)
  in
  match last_outside (n - 1) with
  | None -> Some (Waveform.t_start w)
  | Some i when i = n - 1 -> None (* never settles *)
  | Some i ->
      (* settled from the crossing between sample i and i+1 *)
      let y0 = ys.(i) and y1 = ys.(i + 1) in
      let level =
        if y0 > v_final +. tol then v_final +. tol else v_final -. tol
      in
      if (y0 -. level) *. (y1 -. level) <= 0.0 then
        Some
          (Rlc_numerics.Interp.crossing ~x0:ts.(i) ~y0 ~x1:ts.(i + 1) ~y1
             ~level)
      else Some ts.(i + 1)

let default_level w =
  let lo, hi = Rlc_numerics.Stats.min_max (Waveform.values w) in
  0.5 *. (lo +. hi)

let period ?level w =
  let level = match level with Some l -> l | None -> default_level w in
  match crossings ~direction:Rising w ~level with
  | t0 :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      let n = List.length rest in
      Some ((last -. t0) /. float_of_int n)
  | _ -> None

type edge = Rise | Fall

let full_transitions w ~lo ~hi =
  if lo >= hi then invalid_arg "Measure.full_transitions: lo >= hi";
  let ts = Waveform.times w and ys = Waveform.values w in
  let events = ref [] in
  (* three-valued state: currently latched High, latched Low, or not
     yet determined (before the first excursion outside [lo, hi]) *)
  let state = ref (if ys.(0) >= hi then `High else if ys.(0) <= lo then `Low else `Unknown) in
  Array.iteri
    (fun i y ->
      match !state with
      | `Unknown -> if y >= hi then state := `High else if y <= lo then state := `Low
      | `Low ->
          if y >= hi then begin
            state := `High;
            events := (ts.(i), Rise) :: !events
          end
      | `High ->
          if y <= lo then begin
            state := `Low;
            events := (ts.(i), Fall) :: !events
          end)
    ys;
  List.rev !events

let schmitt_period w ~lo ~hi =
  let rises =
    List.filter_map
      (fun (t, e) -> match e with Rise -> Some t | Fall -> None)
      (full_transitions w ~lo ~hi)
  in
  match rises with
  | t0 :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      Some ((last -. t0) /. float_of_int (List.length rest))
  | _ -> None

let peak_abs w =
  Rlc_numerics.Stats.max (Array.map Float.abs (Waveform.values w))

(* one merge pass: both time axes ascend *)
let max_deviation_pct ~reference w =
  let rt = Waveform.times reference and rv = Waveform.values reference in
  let last = Array.length rt - 1 in
  let lo, hi = Rlc_numerics.Stats.min_max rv in
  let j = ref 0 in
  let worst =
    Waveform.fold
      (fun acc t v ->
        while !j < last - 1 && rt.(!j + 1) < t do
          incr j
        done;
        let r =
          if last = 0 || t <= rt.(0) then rv.(0)
          else if t >= rt.(last) then rv.(last)
          else
            let s = (t -. rt.(!j)) /. (rt.(!j + 1) -. rt.(!j)) in
            ((1.0 -. s) *. rv.(!j)) +. (s *. rv.(!j + 1))
        in
        Float.max acc (Float.abs (v -. r)))
      0.0 w
  in
  100.0 *. worst /. (hi -. lo)

let rms w =
  Rlc_numerics.Stats.rms_sampled ~xs:(Waveform.times w)
    ~ys:(Waveform.values w)

let rms_over_period ?level w =
  let level = match level with Some l -> l | None -> default_level w in
  match crossings ~direction:Rising w ~level with
  | t0 :: (_ :: _ as rest) ->
      let t1 = List.nth rest (List.length rest - 1) in
      let sliced = Waveform.slice w ~t0 ~t1 in
      Some
        (Rlc_numerics.Stats.rms_sampled ~xs:(Waveform.times sliced)
           ~ys:(Waveform.values sliced))
  | _ -> None
