(* Numerical-health ledger over the probes in [lib/numerics]: each
   factorisation reports a pivot-growth and reciprocal-condition
   estimate (cheap by-products of the kernel, computed only while
   recording), and each fallback/raise path reports a reason.  The
   classification thresholds mirror the solver's own guards: growth
   beyond the sparse refactor's repivot limit, or an rcond estimate
   within a few digits of losing the whole mantissa, marks the solve
   degraded even when it returned numbers. *)

type classification = Ok | Degraded | Failed

let to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"

let of_string = function
  | "ok" -> Some Ok
  | "degraded" -> Some Degraded
  | "failed" -> Some Failed
  | _ -> None

let rank = function Ok -> 0 | Degraded -> 1 | Failed -> 2
let worst a b = if rank a >= rank b then a else b

(* the same limit Sparse.refactor repivots at; dense/banded growth
   beyond it means the factorisation lost ~8 of 16 digits *)
let growth_limit = 1e8
let rcond_limit = 1e-12

let m_ok = Metrics.counter "health.ok"
let m_degraded = Metrics.counter "health.degraded"
let m_failed = Metrics.counter "health.failed"
let h_growth = Metrics.hist "health.pivot_growth"
let h_rcond = Metrics.hist "health.rcond"

let counter_of = function
  | Ok -> m_ok
  | Degraded -> m_degraded
  | Failed -> m_failed

(* The one threshold check behind both the classification and the
   reason a degraded solve is journaled with. *)
let assess ?growth ?rcond () =
  let bad_growth =
    match growth with
    | Some g -> (not (Float.is_finite g)) || g > growth_limit
    | None -> false
  in
  let bad_rcond =
    match rcond with
    | Some r -> Float.is_nan r || r < rcond_limit
    | None -> false
  in
  match (bad_growth, bad_rcond) with
  | false, false -> (Ok, "")
  | true, true -> (Degraded, "pivot growth + ill-conditioned")
  | true, false -> (Degraded, "pivot growth")
  | false, true -> (Degraded, "ill-conditioned")

let classify ?growth ?rcond () = fst (assess ?growth ?rcond ())

let observe ~kind ?growth ?rcond () =
  (match growth with Some g -> Metrics.observe h_growth g | None -> ());
  (match rcond with Some r -> Metrics.observe h_rcond r | None -> ());
  let c, reason = assess ?growth ?rcond () in
  Metrics.incr (counter_of c);
  if c <> Ok && Journal.capturing () then begin
    let fields =
      [ ("kind", Journal.Str kind); ("class", Journal.Str (to_string c));
        ("reason", Journal.Str reason) ]
      @ (match growth with
        | Some g -> [ ("growth", Journal.Num g) ]
        | None -> [])
      @ match rcond with Some r -> [ ("rcond", Journal.Num r) ] | None -> []
    in
    Journal.record "health" fields
  end;
  c

(* the tail every factorisation probe shares: growth = max |U| over
   max |A| (1 for an all-zero A), rcond proxy = min over max |U_ii|
   (0 for an all-zero diagonal) *)
let observe_factor ~kind ~amax ~umax ~dmin ~dmax =
  let growth = if amax > 0.0 then umax /. amax else 1.0 in
  let rcond = if dmax > 0.0 then dmin /. dmax else 0.0 in
  ignore (observe ~kind ~growth ~rcond ())

let note c ~kind ~reason =
  Metrics.incr (counter_of c);
  if Journal.capturing () then
    Journal.record "health"
      [
        ("kind", Journal.Str kind);
        ("class", Journal.Str (to_string c));
        ("reason", Journal.Str reason);
      ]

let degraded ~kind ~reason = note Degraded ~kind ~reason
let failure ~kind ~reason = note Failed ~kind ~reason

(* ---------------- summary (quiescent points only) ---------------- *)

type report = {
  solves : int;
  ok : int;
  degraded : int;
  failed : int;
  worst_growth : float option;
  min_rcond : float option;
}

let report () =
  let ok = int_of_float (Metrics.value m_ok) in
  let degraded = int_of_float (Metrics.value m_degraded) in
  let failed = int_of_float (Metrics.value m_failed) in
  {
    solves = ok + degraded + failed;
    ok;
    degraded;
    failed;
    worst_growth =
      Option.map
        (fun (s : Metrics.summary) -> s.Metrics.max)
        (Metrics.hist_summary h_growth);
    min_rcond =
      Option.map
        (fun (s : Metrics.summary) -> s.Metrics.min)
        (Metrics.hist_summary h_rcond);
  }

let pp_report ppf r =
  Format.fprintf ppf "health: %d solves (%d ok, %d degraded, %d failed)"
    r.solves r.ok r.degraded r.failed;
  (match r.worst_growth with
  | Some g -> Format.fprintf ppf ", worst growth %.3g" g
  | None -> ());
  (match r.min_rcond with
  | Some c -> Format.fprintf ppf ", min rcond %.3g" c
  | None -> ());
  Format.fprintf ppf "@."

(* worst classification among the health events a provenance id
   produced — what the serving layer appends to err results *)
let worst_for events ~provenance =
  List.fold_left
    (fun acc (e : Journal.event) ->
      if e.Journal.name <> "health" || e.Journal.provenance <> provenance
      then acc
      else begin
        let c =
          Option.bind (Journal.str_field e "class") of_string
          |> Option.value ~default:Degraded
        in
        let reason =
          Option.value ~default:"" (Journal.str_field e "reason")
        in
        match acc with
        | Some (c0, _) when rank c0 >= rank c -> acc
        | _ -> Some (c, reason)
      end)
    None events
