(* The test suites' one float comparison: |expected - actual| <=
   tol (1 + max(|expected|, |actual|)).  A nan on either side fails, and
   so does an infinity unless both sides are the same infinity: a plain
   relative test would pass both vacuously, since nan never satisfies
   [>] and the bound itself becomes infinite. *)
let check_close ?(tol = 1e-9) msg expected actual =
  let ok =
    if Float.is_finite expected && Float.is_finite actual then
      Float.abs (expected -. actual)
      <= tol *. (1.0 +. Float.max (Float.abs expected) (Float.abs actual))
    else expected = actual
  in
  if not ok then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* |expected - actual| <= tol max(|expected|, |actual|): the comparison
   for quantities far from magnitude 1 (a derivative in SI units, a
   delay in seconds), where [check_close]'s floor of 1 would pass
   anything near them. *)
let check_rel ?(tol = 1e-9) msg expected actual =
  let ok =
    if Float.is_finite expected && Float.is_finite actual then
      Float.abs (expected -. actual)
      <= tol *. Float.max (Float.abs expected) (Float.abs actual)
    else expected = actual
  in
  if not ok then
    Alcotest.failf "%s: expected %.17g, got %.17g (relative tol %g)" msg
      expected actual tol
