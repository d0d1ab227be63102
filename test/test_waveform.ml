(* Tests for rlc_waveform: waveform container and measurements. *)

open Approx

let check_float = Alcotest.(check (float 1e-9))

open Rlc_waveform

let ramp = Waveform.create ~times:[| 0.0; 1.0; 2.0 |] ~values:[| 0.0; 1.0; 2.0 |]

let sine ?(periods = 3.0) ?(n = 3000) ?(amp = 1.0) ?(offset = 0.0) () =
  Waveform.of_fn ~n
    (fun t -> offset +. (amp *. Float.sin (2.0 *. Float.pi *. t)))
    ~t0:0.0 ~t1:periods

(* ---------------- Waveform ---------------- *)

let test_create_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Waveform.create: empty or mismatched arrays") (fun () ->
      ignore (Waveform.create ~times:[||] ~values:[||]));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Waveform.create: empty or mismatched arrays") (fun () ->
      ignore (Waveform.create ~times:[| 0.0 |] ~values:[| 1.0; 2.0 |]));
  Alcotest.check_raises "non-monotonic"
    (Invalid_argument "Waveform.create: times not strictly increasing")
    (fun () ->
      ignore (Waveform.create ~times:[| 0.0; 0.0 |] ~values:[| 1.0; 2.0 |]))

let test_accessors () =
  Alcotest.(check int) "length" 3 (Waveform.length ramp);
  check_float "start" 0.0 (Waveform.t_start ramp);
  check_float "end" 2.0 (Waveform.t_end ramp);
  check_float "duration" 2.0 (Waveform.duration ramp)

let test_value_at () =
  check_float "interp" 0.5 (Waveform.value_at ramp 0.5);
  check_float "clamped below" 0.0 (Waveform.value_at ramp (-1.0));
  check_float "clamped above" 2.0 (Waveform.value_at ramp 10.0)

let test_map_map2 () =
  let doubled = Waveform.map (fun v -> 2.0 *. v) ramp in
  check_float "map" 4.0 (Waveform.value_at doubled 2.0);
  let sum = Waveform.map2 ( +. ) ramp doubled in
  check_float "map2" 6.0 (Waveform.value_at sum 2.0);
  let other = Waveform.create ~times:[| 0.0; 9.0 |] ~values:[| 0.0; 0.0 |] in
  Alcotest.check_raises "mismatched axes"
    (Invalid_argument "Waveform.map2: time axes differ") (fun () ->
      ignore (Waveform.map2 ( +. ) ramp other))

let test_slice_shift () =
  let s = Waveform.slice ramp ~t0:0.5 ~t1:2.0 in
  Alcotest.(check int) "slice keeps 2" 2 (Waveform.length s);
  check_float "slice start" 1.0 (Waveform.t_start s);
  let sh = Waveform.shift ramp 10.0 in
  check_float "shifted" 10.0 (Waveform.t_start sh);
  Alcotest.check_raises "empty slice"
    (Invalid_argument "Waveform.slice: empty result") (fun () ->
      ignore (Waveform.slice ramp ~t0:5.0 ~t1:6.0))

let test_fold_iter () =
  let count = Waveform.fold (fun acc _ _ -> acc + 1) 0 ramp in
  Alcotest.(check int) "fold count" 3 count;
  let sum = ref 0.0 in
  Waveform.iter (fun _ v -> sum := !sum +. v) ramp;
  check_float "iter sum" 3.0 !sum

let test_of_fn () =
  let w = Waveform.of_fn ~n:11 (fun t -> t *. t) ~t0:0.0 ~t1:1.0 in
  Alcotest.(check int) "samples" 11 (Waveform.length w);
  check_float "endpoint" 1.0 (Waveform.value_at w 1.0)

(* ---------------- Measure ---------------- *)

let test_crossings_sine () =
  let w = sine () in
  let ups = Measure.crossings ~direction:Measure.Rising w ~level:0.0 in
  (* 3 periods starting exactly at 0 heading up: rising zero crossings
     at t = 0 (on-level sample), 1 and 2 *)
  Alcotest.(check int) "rising crossings" 3 (List.length ups);
  check_close "first" 0.0 (List.nth ups 0) ~tol:1e-3;
  check_close "second" 1.0 (List.nth ups 1) ~tol:1e-3;
  let downs = Measure.crossings ~direction:Measure.Falling w ~level:0.0 in
  Alcotest.(check int) "falling crossings" 3 (List.length downs);
  check_close "first fall" 0.5 (List.nth downs 0) ~tol:1e-3

let test_threshold_delay () =
  (* first-order rise 1 - e^{-t}: 50% delay = ln 2 *)
  let w =
    Waveform.of_fn ~n:5000 (fun t -> 1.0 -. Float.exp (-.t)) ~t0:0.0 ~t1:8.0
  in
  (match Measure.threshold_delay w ~fraction:0.5 ~v_final:1.0 with
  | Some d -> check_close "ln 2" (Float.log 2.0) d ~tol:1e-3
  | None -> Alcotest.fail "no delay found");
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Measure.threshold_delay: fraction must be in [0,1)")
    (fun () -> ignore (Measure.threshold_delay w ~fraction:1.5 ~v_final:1.0))

let test_overshoot_undershoot () =
  let w =
    Waveform.create
      ~times:[| 0.0; 1.0; 2.0; 3.0; 4.0 |]
      ~values:[| 0.0; 1.4; 0.8; 1.1; 1.0 |]
  in
  check_close "overshoot" 0.4 (Measure.overshoot w ~v_final:1.0);
  check_close "no undershoot below 0" 0.0 (Measure.undershoot_below w ~floor:0.0);
  let w2 = Waveform.map (fun v -> v -. 0.9) w in
  check_close "undershoot" 0.9 (Measure.undershoot_below w2 ~floor:0.0)

let test_settling_time () =
  let w =
    Waveform.of_fn ~n:4000
      (fun t -> 1.0 -. (Float.exp (-.t) *. Float.cos (10.0 *. t)))
      ~t0:0.0 ~t1:10.0
  in
  match Measure.settling_time w ~v_final:1.0 ~band:0.05 with
  | Some t ->
      (* envelope e^{-t} = 0.05 at t = ln 20 = 3.0; settling must be
         at or before that, and after 1.0 *)
      Alcotest.(check bool) "reasonable" true (t > 0.5 && t <= 3.1)
  | None -> Alcotest.fail "did not settle"

let test_period_sine () =
  let w = sine () in
  match Measure.period w with
  | Some p -> check_close "period" 1.0 p ~tol:1e-3
  | None -> Alcotest.fail "no period"

let test_period_none_for_dc () =
  let w = Waveform.create ~times:[| 0.0; 1.0 |] ~values:[| 1.0; 1.0 |] in
  Alcotest.(check bool) "no period" true (Measure.period w = None)

let test_peak_rms () =
  let w = sine ~amp:2.0 () in
  check_close "peak" 2.0 (Measure.peak_abs w) ~tol:1e-4;
  check_close "rms" (2.0 /. Float.sqrt 2.0) (Measure.rms w) ~tol:1e-3

let test_max_deviation () =
  (* reference: a 0 -> 2 V ramp over [0, 2] s, swing 2 V; samples are
     compared against it interpolated, and held at its ends *)
  let reference =
    Waveform.create ~times:[| 0.0; 2.0 |] ~values:[| 0.0; 2.0 |]
  in
  let w =
    Waveform.create ~times:[| 0.0; 0.5; 1.0; 3.0 |]
      ~values:[| 0.0; 0.5; 1.1; 2.0 |]
  in
  check_close "0.1 V off at t = 1 is 5% of swing" 5.0
    (Measure.max_deviation_pct ~reference w);
  check_float "identical" 0.0 (Measure.max_deviation_pct ~reference reference)

let test_rms_over_period () =
  (* sine with a DC transient would bias plain RMS; over integral
     periods it is amp/sqrt2 *)
  let w = sine ~amp:1.0 ~periods:3.25 () in
  match Measure.rms_over_period w with
  | Some r -> check_close "rms over periods" (1.0 /. Float.sqrt 2.0) r ~tol:2e-3
  | None -> Alcotest.fail "no period found"

let test_full_transitions () =
  (* square-ish wave with ringing around mid-level that must not count *)
  let times = Array.init 13 (fun i -> float_of_int i) in
  let values =
    [| 0.0; 1.0; 0.55; 0.45; 0.6; 0.4; 1.0; 0.9; 0.0; 0.1; 0.05; 1.0; 1.0 |]
  in
  let w = Waveform.create ~times ~values in
  let events = Measure.full_transitions w ~lo:0.25 ~hi:0.75 in
  (* rises at t=1 and t=11; fall at t=8.  the 0.55/0.45/0.6/0.4 ringing
     never reaches either level *)
  Alcotest.(check int) "event count" 3 (List.length events);
  (match events with
  | (t1, Measure.Rise) :: (t2, Measure.Fall) :: (t3, Measure.Rise) :: _ ->
      check_float "rise 1" 1.0 t1;
      check_float "fall" 8.0 t2;
      check_float "rise 2" 11.0 t3
  | _ -> Alcotest.fail "unexpected event sequence");
  Alcotest.check_raises "lo >= hi"
    (Invalid_argument "Measure.full_transitions: lo >= hi") (fun () ->
      ignore (Measure.full_transitions w ~lo:0.8 ~hi:0.2))

let test_schmitt_period () =
  let w = sine ~periods:4.0 () in
  match Measure.schmitt_period w ~lo:(-0.5) ~hi:0.5 with
  | Some p -> check_close "schmitt period" 1.0 p ~tol:1e-2
  | None -> Alcotest.fail "no schmitt period"

let prop_overshoot_nonnegative =
  QCheck2.Test.make ~name:"overshoot is always >= 0" ~count:200
    QCheck2.Gen.(list_size (int_range 2 40) (float_range (-5.0) 5.0))
    (fun vs ->
      let values = Array.of_list vs in
      let times = Array.init (Array.length values) float_of_int in
      let w = Waveform.create ~times ~values in
      Measure.overshoot w ~v_final:1.0 >= 0.0
      && Measure.undershoot_below w ~floor:0.0 >= 0.0)

let prop_rms_bounded_by_peak =
  QCheck2.Test.make ~name:"rms <= peak" ~count:200
    QCheck2.Gen.(list_size (int_range 2 40) (float_range (-5.0) 5.0))
    (fun vs ->
      let values = Array.of_list vs in
      let times = Array.init (Array.length values) float_of_int in
      let w = Waveform.create ~times ~values in
      Measure.rms w <= Measure.peak_abs w +. 1e-12)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "rlc_waveform"
    [
      ( "waveform",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "value_at" `Quick test_value_at;
          Alcotest.test_case "map / map2" `Quick test_map_map2;
          Alcotest.test_case "slice / shift" `Quick test_slice_shift;
          Alcotest.test_case "fold / iter" `Quick test_fold_iter;
          Alcotest.test_case "of_fn" `Quick test_of_fn;
        ] );
      ( "measure",
        [
          Alcotest.test_case "crossings" `Quick test_crossings_sine;
          Alcotest.test_case "threshold delay" `Quick test_threshold_delay;
          Alcotest.test_case "overshoot/undershoot" `Quick
            test_overshoot_undershoot;
          Alcotest.test_case "settling time" `Quick test_settling_time;
          Alcotest.test_case "period of sine" `Quick test_period_sine;
          Alcotest.test_case "period of dc" `Quick test_period_none_for_dc;
          Alcotest.test_case "peak & rms" `Quick test_peak_rms;
          Alcotest.test_case "max deviation" `Quick test_max_deviation;
          Alcotest.test_case "rms over period" `Quick test_rms_over_period;
          Alcotest.test_case "full transitions" `Quick test_full_transitions;
          Alcotest.test_case "schmitt period" `Quick test_schmitt_period;
        ] );
      qsuite "measure-properties"
        [ prop_overshoot_nonnegative; prop_rms_bounded_by_peak ];
    ]
