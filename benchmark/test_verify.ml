(* The benchmark's output checks must flag a perturbed reference. *)

open Rlcbench_lib
module W = Rlc_waveform.Waveform

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let () =
  (* serve lines *)
  let line = "ok j1 tran final=0.95238095238095233 min=0 max=1.0214 steps=51" in
  expect "identical line passes" (Verify.serve_line_ok ~reference:line line);
  expect "1e-12 relative drift passes"
    (Verify.serve_line_ok ~reference:line
       "ok j1 tran final=0.95238095238096233 min=0 max=1.0214 steps=51");
  expect "1e-6 relative drift is flagged"
    (not
       (Verify.serve_line_ok ~reference:line
          "ok j1 tran final=0.95238195238095233 min=0 max=1.0214 steps=51"));
  expect "steps must match exactly"
    (not
       (Verify.serve_line_ok ~reference:line
          "ok j1 tran final=0.95238095238095233 min=0 max=1.0214 steps=52"));
  expect "field names must match"
    (not
       (Verify.serve_line_ok ~reference:line
          "ok j1 tran final=0.95238095238095233 low=0 max=1.0214 steps=51"));
  expect "an err line fails" (not (Verify.serve_line_ok ~reference:line "err j1 singular pivot"));
  let ac = "ok j2 ac n=2 1000000:-1.5:-20.25 10000000:-9.75:-80.5" in
  expect "ac point drift is flagged"
    (not
       (Verify.serve_line_ok ~reference:ac
          "ok j2 ac n=2 1000000:-1.5:-20.25 10000000:-9.75:-80.6"));
  expect "delay none vs a time is flagged"
    (not (Verify.serve_line_ok ~reference:"ok j3 delay t=none" "ok j3 delay t=1e-10"));
  (* optimize-hk *)
  let objective ~h ~k = ((h -. 2.0) ** 2.0) +. ((k -. 3.0) ** 2.0) +. 1.0 in
  expect "the true optimum passes" (Verify.optimum_ok ~objective ~h:2.0 ~k:3.0 ~reported:1.0);
  expect "a wrong reported objective is flagged"
    (not (Verify.optimum_ok ~objective ~h:2.0 ~k:3.0 ~reported:1.000001));
  expect "a point with a lower neighbour is flagged"
    (not (Verify.optimum_ok ~objective ~h:2.1 ~k:3.0 ~reported:(objective ~h:2.1 ~k:3.0)));
  (* transient-ladder *)
  let times = Array.init 101 (fun i -> float_of_int i *. 1e-11) in
  let reference =
    W.create ~times ~values:(Array.map (fun t -> 1.0 -. Float.exp (-.t /. 2e-10)) times)
  in
  let bump amp =
    let x t = (t -. 5e-10) /. 5e-11 in
    W.map2
      (fun v t -> v +. (amp *. Float.exp (-.(x t *. x t))))
      reference (W.create ~times ~values:times)
  in
  expect "the reference matches itself" (Verify.wave_ok ~reference reference);
  expect "a 4% deviation is within the budget" (Verify.wave_ok ~reference (bump 0.04));
  expect "a perturbed reference (6% of swing) is flagged"
    (not (Verify.wave_ok ~reference:(bump 0.06) reference));
  expect "a reference that moves 1% when its step doubles is not trusted"
    (not (Verify.reference_ok ~fine:reference ~coarse:(bump 0.01)));
  expect "a reference that moves 0.1% is trusted"
    (Verify.reference_ok ~fine:reference ~coarse:(bump 0.001));
  if !failures > 0 then exit 1;
  print_endline "verify checks: all perturbations flagged"
