type t =
  | Dc of float
  | Step of { v0 : float; v1 : float; t_delay : float; t_rise : float }
  | Pulse of {
      v0 : float;
      v1 : float;
      t_delay : float;
      t_rise : float;
      t_high : float;
      t_fall : float;
      period : float;
    }
  | Pwl of (float * float) list

let validate = function
  | Dc _ -> ()
  | Step { t_delay; t_rise; _ } ->
      if t_delay < 0.0 then invalid_arg "Stimulus: step t_delay < 0";
      if t_rise <= 0.0 then invalid_arg "Stimulus: step t_rise <= 0"
  | Pulse { t_delay; t_rise; t_fall; t_high; period; _ } ->
      if t_delay < 0.0 then invalid_arg "Stimulus: pulse t_delay < 0";
      if t_rise <= 0.0 || t_fall <= 0.0 then
        invalid_arg "Stimulus: pulse edge <= 0";
      if t_high < 0.0 then invalid_arg "Stimulus: pulse t_high < 0";
      if period <= 0.0 then invalid_arg "Stimulus: pulse period <= 0";
      if t_rise +. t_high +. t_fall > period then
        invalid_arg "Stimulus: pulse does not fit its period"
  | Pwl corners ->
      if List.length corners < 1 then invalid_arg "Stimulus: empty PWL";
      (match corners with
      | (t0, _) :: _ when t0 < 0.0 ->
          invalid_arg "Stimulus: PWL starts before t = 0"
      | _ -> ());
      let rec check = function
        | (t0, _) :: ((t1, _) :: _ as rest) ->
            if t1 <= t0 then invalid_arg "Stimulus: PWL times not increasing";
            check rest
        | [ _ ] | [] -> ()
      in
      check corners

(* [ramp] and [value] are inlined into [eval] and [eval_into], so the
   value of a DC, step or pulse source is never boxed on its way to an
   array. *)
let[@inline] ramp ~from_v ~to_v ~t0 ~dt t =
  if t <= t0 then from_v
  else if t >= t0 +. dt then to_v
  else from_v +. ((to_v -. from_v) *. (t -. t0) /. dt)

let rec pwl corners t =
  match corners with
  | [] -> 0.0
  | [ (_, v) ] -> v
  | (t0, v0) :: ((t1, v1) :: _ as rest) ->
      if t <= t0 then v0
      else if t <= t1 then ramp ~from_v:v0 ~to_v:v1 ~t0 ~dt:(t1 -. t0) t
      else pwl rest t

let[@inline] value stim t =
  match stim with
  | Dc v -> v
  | Step { v0; v1; t_delay; t_rise } ->
      ramp ~from_v:v0 ~to_v:v1 ~t0:t_delay ~dt:t_rise t
  | Pulse { v0; v1; t_delay; t_rise; t_high; t_fall; period } ->
      if t <= t_delay then v0
      else begin
        let phase = Float.rem (t -. t_delay) period in
        if phase < t_rise then ramp ~from_v:v0 ~to_v:v1 ~t0:0.0 ~dt:t_rise phase
        else if phase < t_rise +. t_high then v1
        else if phase < t_rise +. t_high +. t_fall then
          ramp ~from_v:v1 ~to_v:v0 ~t0:(t_rise +. t_high) ~dt:t_fall phase
        else v0
      end
  | Pwl corners -> (
      match corners with
      | (t0, v0) :: _ when t < t0 -> v0
      | _ -> pwl corners t)

let eval stim t = value stim t
let eval_into stim a i = a.(i) <- value stim a.(i)

let square_wave ~vdd ~period ?t_rise () =
  let t_rise = match t_rise with Some x -> x | None -> period /. 100.0 in
  let edge = t_rise in
  let t_high = (period /. 2.0) -. edge in
  Pulse
    {
      v0 = 0.0;
      v1 = vdd;
      t_delay = 0.0;
      t_rise = edge;
      t_high;
      t_fall = edge;
      period;
    }
