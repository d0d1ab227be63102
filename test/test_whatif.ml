(* Tests for the incremental what-if layer: the Sherman-Morrison-
   Woodbury update kernel, the compiled Whatif workspace (rank-k fast
   path vs fresh factorisation, fallback guards, adjoint gradients vs
   finite differences), the shared structural-key pairing, the
   deck-cache key API and the serve delay-sens query. *)

open Rlc_numerics
open Rlc_circuit
open Approx

let check_bits msg expected actual =
  if
    not
      (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
  then
    Alcotest.failf "%s: expected bits of %.17g, got %.17g" msg expected actual

(* ---------------- the SMW update kernel ---------------- *)

(* A small dense test system behind a Solver plan: full adjacency so
   the plan accepts any pattern, values from a deterministic PRNG,
   diagonally dominant so the base factor is well-conditioned. *)
let dense_system ?(n = 10) seed =
  let st = Random.State.make [| seed |] in
  let a =
    Array.init n (fun _ ->
        Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0))
  in
  for i = 0 to n - 1 do
    a.(i).(i) <- 4.0 +. Random.State.float st 1.0
  done;
  let adj = Array.init n (fun i -> List.init n (fun j -> abs (i - j))) in
  let adj = Array.mapi (fun i _ -> List.init n (fun j -> j) |> List.filter (fun j -> j <> i)) adj in
  let plan = Solver.plan adj in
  let fill add =
    Array.iteri (fun i row -> Array.iteri (fun j v -> add i j v) row) a
  in
  (a, plan, Solver.factor plan ~fill, st)

let rand_vec st n = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let test_update_matches_dense () =
  let n = 10 in
  let a, plan, factor, st = dense_system 7 in
  for k = 0 to 3 do
    let u = Array.init k (fun _ -> rand_vec st n) in
    let v = Array.init k (fun _ -> rand_vec st n) in
    let scale = Array.init k (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let upd = Update.make ~scale plan factor ~u ~v in
    Alcotest.(check int) "rank" k (Update.rank upd);
    if k = 0 then
      check_close "rank-0 condition" 1.0 (Update.condition upd);
    (* perturbed dense reference *)
    let m = Matrix.of_arrays (Array.map Array.copy a) in
    for t = 0 to k - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.add_to m i j (scale.(t) *. u.(t).(i) *. v.(t).(j))
        done
      done
    done;
    let b = rand_vec st n in
    let expect = Lu.solve (Lu.decompose m) b in
    let got = Update.solve upd b in
    Array.iteri
      (fun i e -> check_close ~tol:1e-10 (Printf.sprintf "k=%d x[%d]" k i) e got.(i))
      expect;
    (* apply with x0 aliasing x *)
    let x = Solver.solve plan factor b in
    Update.apply upd ~x0:x ~x;
    Array.iteri
      (fun i e -> check_close ~tol:1e-10 (Printf.sprintf "alias k=%d x[%d]" k i) e x.(i))
      expect
  done

let test_update_precomputed_z () =
  let n = 10 in
  let _, plan, factor, st = dense_system 11 in
  let u = Array.init 2 (fun _ -> rand_vec st n) in
  let v = Array.init 2 (fun _ -> rand_vec st n) in
  let z = Array.map (fun ui -> Solver.solve plan factor ui) u in
  let b = rand_vec st n in
  let fresh = Update.solve (Update.make plan factor ~u ~v) b in
  let cached = Update.solve (Update.make ~z plan factor ~u ~v) b in
  Array.iteri (fun i e -> check_bits "z-cache identical" e cached.(i)) fresh

let test_update_singular () =
  (* A = [4]; scale u v^T = -4 annihilates it: S = 1 - 1 = 0 *)
  let plan = Solver.plan [| [] |] in
  let factor = Solver.factor plan ~fill:(fun add -> add 0 0 4.0) in
  Alcotest.check_raises "singular S" Update.Singular (fun () ->
      ignore
        (Update.make ~scale:[| -4.0 |] plan factor ~u:[| [| 1.0 |] |]
           ~v:[| [| 1.0 |] |]))

let test_update_complex () =
  let n = 6 in
  let st = Random.State.make [| 23 |] in
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let v = Cx.make (Random.State.float st 2.0 -. 1.0)
                (Random.State.float st 2.0 -. 1.0) in
            if i = j then Cx.( +: ) v (Cx.of_float 5.0) else v))
  in
  let adj =
    Array.init n (fun i ->
        List.init n (fun j -> j) |> List.filter (fun j -> j <> i))
  in
  let plan = Solver.plan adj in
  let fill add =
    Array.iteri (fun i row -> Array.iteri (fun j v -> add i j v) row) a
  in
  let cf = Solver.cfactor plan ~fill in
  let crand () = Cx.make (Random.State.float st 2.0 -. 1.0)
      (Random.State.float st 2.0 -. 1.0) in
  let u = Array.init 2 (fun _ -> Array.init n (fun _ -> crand ())) in
  let v = Array.init 2 (fun _ -> Array.init n (fun _ -> crand ())) in
  let scl = Array.init 2 (fun _ -> crand ()) in
  let upd = Update.cmake ~scale:scl plan cf ~u ~v in
  Alcotest.(check int) "crank" 2 (Update.crank upd);
  if not (Update.ccondition upd >= 1.0) then
    Alcotest.fail "ccondition < 1";
  let b = Array.init n (fun _ -> crand ()) in
  (* dense complex reference *)
  let m = Cmatrix.init n n (fun i j -> a.(i).(j)) in
  for t = 0 to 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Cmatrix.add_to m i j
          (Cx.( *: ) scl.(t) (Cx.( *: ) u.(t).(i) v.(t).(j)))
      done
    done
  done;
  let expect = Clu.solve (Clu.decompose m) b in
  let got = Update.csolve upd b in
  Array.iteri
    (fun i e ->
      check_close ~tol:1e-10 (Printf.sprintf "re[%d]" i) (Cx.re e)
        (Cx.re got.(i));
      check_close ~tol:1e-10 (Printf.sprintf "im[%d]" i) (Cx.im e)
        (Cx.im got.(i)))
    expect

(* ---------------- the RLC ladder fixture ---------------- *)

let seg_name i = Printf.sprintf "seg%d" i
let cap_name i = Printf.sprintf "cap%d" i

let seg_r i = 8.0 +. (0.25 *. float_of_int i)
let seg_l i = 2e-10 +. (1e-11 *. float_of_int i)
let cap_c i = 5e-14 +. (2e-15 *. float_of_int i)

(* A driven RLC ladder with a resistive load (so DC voltages are a
   nontrivial divider).  [overrides] replaces element values by
   (name, kind) — the fresh-recompile reference for a perturbed
   evaluation. *)
let ladder ?(segments = 10) ?(overrides = []) () =
  let ov name kind default =
    match
      List.find_opt (fun (n, k, _) -> String.equal n name && k = kind) overrides
    with
    | Some (_, _, v) -> v
    | None -> default
  in
  let n = Netlist.create () in
  let src = Netlist.fresh_node ~name:"src" n in
  Netlist.add_vsource ~name:"vin" n src Netlist.ground (Stimulus.Dc 1.0);
  let drv = Netlist.fresh_node ~name:"drv" n in
  Netlist.add_resistor ~name:"rs" n src drv (ov "rs" `R 120.0);
  let prev = ref drv in
  for i = 1 to segments do
    let nx = Netlist.fresh_node ~name:(Printf.sprintf "n%d" i) n in
    Netlist.add_rl_branch ~name:(seg_name i) n !prev nx
      ~ohms:(ov (seg_name i) `R (seg_r i))
      ~henries:(ov (seg_name i) `L (seg_l i));
    Netlist.add_capacitor ~name:(cap_name i) n nx Netlist.ground
      (ov (cap_name i) `C (cap_c i));
    prev := nx
  done;
  Netlist.add_resistor ~name:"rload" n !prev Netlist.ground
    (ov "rload" `R 2500.0);
  (n, !prev)

let all_param_specs segments =
  List.concat
    (List.init segments (fun i ->
         let i = i + 1 in
         [ (seg_name i, `R); (seg_name i, `L); (cap_name i, `C) ]))
  @ [ ("rs", `R); ("rload", `R) ]

(* ---------------- workspace evaluation vs fresh recompile ------- *)

let test_base_point_no_solve () =
  let netlist, out = ladder () in
  let ws = Whatif.compile netlist in
  let sys = Dc.make netlist in
  check_close ~tol:1e-12 "base dc = Dc.voltages"
    (Dc.voltages sys).(out)
    (Whatif.evaluate ws (Whatif.Dc_voltage out));
  let s = Whatif.stats ws in
  Alcotest.(check int) "no updates at base" 0 s.Whatif.updates;
  Alcotest.(check int) "no refactors at base" 0 s.Whatif.refactors

let random_overrides st specs k =
  let specs = Array.of_list specs in
  let chosen = Hashtbl.create 8 in
  let out = ref [] in
  while Hashtbl.length chosen < k do
    let i = Random.State.int st (Array.length specs) in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.add chosen i ();
      let name, kind = specs.(i) in
      let base =
        match kind with
        | `R -> if String.equal name "rs" then 120.0
                else if String.equal name "rload" then 2500.0
                else seg_r (Scanf.sscanf name "seg%d" Fun.id)
        | `L -> seg_l (Scanf.sscanf name "seg%d" Fun.id)
        | `C -> cap_c (Scanf.sscanf name "cap%d" Fun.id)
        | `M -> assert false
      in
      let factor = 0.6 +. Random.State.float st 1.0 in
      out := (name, kind, base *. factor) :: !out
    end
  done;
  !out

let targets out = [ ("dc", Whatif.Dc_voltage out); ("delay", Whatif.Delay out) ]

(* The tentpole property: k random value perturbations served by the
   rank-k fast path match a fresh compile of the perturbed netlist to
   1e-9, for both the DC and the moment-delay targets. *)
let test_random_perturbations_match_fresh () =
  let segments = 10 in
  let netlist, out = ladder ~segments () in
  let ws = Whatif.compile netlist in
  let specs = all_param_specs segments in
  let st = Random.State.make [| 2026 |] in
  for trial = 1 to 25 do
    let k = 1 + Random.State.int st 4 in
    let overrides = random_overrides st specs k in
    let set =
      List.map (fun (n, kd, v) -> (Whatif.param ws n kd, v)) overrides
    in
    let fresh_ws = Whatif.compile (fst (ladder ~segments ~overrides ())) in
    List.iter
      (fun (label, target) ->
        let fast = Whatif.evaluate ~set ws target in
        let reference = Whatif.evaluate fresh_ws target in
        check_rel ~tol:1e-9
          (Printf.sprintf "trial %d %s (k=%d)" trial label k)
          reference fast)
      (targets out)
  done;
  let s = Whatif.stats ws in
  if s.Whatif.updates = 0 then Alcotest.fail "fast path never taken";
  Alcotest.(check int) "no fallbacks under max_rank" 0 s.Whatif.fallbacks

(* max_rank = 0 forces the refactor baseline; it must agree with the
   update path to the exactness gate. *)
let test_update_vs_refactor_paths () =
  let segments = 10 in
  let netlist, out = ladder ~segments () in
  let fast = Whatif.compile netlist in
  let slow = Whatif.compile ~max_rank:0 netlist in
  let specs = all_param_specs segments in
  let st = Random.State.make [| 7777 |] in
  for trial = 1 to 10 do
    let overrides = random_overrides st specs (1 + Random.State.int st 4) in
    let set ws =
      List.map (fun (n, kd, v) -> (Whatif.param ws n kd, v)) overrides
    in
    List.iter
      (fun (label, target) ->
        check_rel ~tol:1e-9
          (Printf.sprintf "trial %d %s" trial label)
          (Whatif.evaluate ~set:(set slow) slow target)
          (Whatif.evaluate ~set:(set fast) fast target))
      (targets out)
  done;
  let sf = Whatif.stats fast and ss = Whatif.stats slow in
  if sf.Whatif.updates = 0 then Alcotest.fail "fast path never taken";
  Alcotest.(check int) "baseline never updates" 0 ss.Whatif.updates;
  Alcotest.(check int) "baseline fallbacks stay 0" 0 ss.Whatif.fallbacks;
  if ss.Whatif.refactors = 0 then Alcotest.fail "baseline never refactored"

(* Exactness guards: rank over max_rank and a hostile condition limit
   both land on the (counted) fallback refactor, with the same
   answers. *)
let test_guard_fallbacks () =
  let segments = 10 in
  let netlist, out = ladder ~segments () in
  let reference = Whatif.compile netlist in
  let capped = Whatif.compile ~max_rank:2 netlist in
  let set ws =
    [ (Whatif.param ws "seg1" `R, 12.0);
      (Whatif.param ws "seg4" `R, 4.0);
      (Whatif.param ws "seg6" `R, 15.0);
      (Whatif.param ws "cap7" `C, 9e-14) ]
  in
  List.iter
    (fun (label, target) ->
      check_rel ~tol:1e-9 ("rank-capped " ^ label)
        (Whatif.evaluate ~set:(set reference) reference target)
        (Whatif.evaluate ~set:(set capped) capped target))
    (targets out);
  let s = Whatif.stats capped in
  if s.Whatif.fallbacks = 0 then Alcotest.fail "rank guard never tripped";
  Alcotest.(check int) "fallbacks are refactors" s.Whatif.refactors
    s.Whatif.fallbacks;
  (* a condition limit barely above 1 rejects any real rank >= 2
     perturbation (a 1x1 capacitance matrix S always has condition
     exactly 1, so rank 1 can never trip the guard) *)
  let paranoid = Whatif.compile ~condition_limit:(1.0 +. 1e-12) netlist in
  let pset ws =
    [ (Whatif.param ws "seg2" `R, 80.0); (Whatif.param ws "seg5" `R, 3.0) ]
  in
  let v =
    Whatif.evaluate ~set:(pset paranoid) paranoid (Whatif.Dc_voltage out)
  in
  check_close ~tol:1e-9 "condition-guarded value"
    (Whatif.evaluate ~set:(pset reference) reference (Whatif.Dc_voltage out))
    v;
  let s = Whatif.stats paranoid in
  if s.Whatif.fallbacks = 0 then Alcotest.fail "condition guard never tripped"

let test_rejection_convention () =
  let netlist, out = ladder () in
  let ws = Whatif.compile netlist in
  let p = Whatif.param ws "seg3" `R in
  if not (Float.is_nan
            (Whatif.evaluate ~set:[ (p, -1.0) ] ws (Whatif.Dc_voltage out)))
  then Alcotest.fail "negative resistance must evaluate to nan";
  if not (Float.is_nan
            (Whatif.evaluate ~set:[ (p, Float.nan) ] ws (Whatif.Dc_voltage out)))
  then Alcotest.fail "nan setting must evaluate to nan";
  Alcotest.check_raises "unknown element"
    (Invalid_argument "Whatif.param: unknown element nosuch") (fun () ->
      ignore (Whatif.param ws "nosuch" `R));
  (match Whatif.param ws "cap2" `R with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacitor has no resistance");
  check_bits "base_value" (seg_r 3) (Whatif.base_value p)

(* ---------------- the two-pole delay vs the analytic core ------- *)

let check_gradients label scale_tol (fd, adj) =
  let norm = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 fd in
  if norm = 0.0 then Alcotest.failf "%s: all-zero finite differences" label;
  Array.iteri
    (fun i f ->
      let a = adj.(i) in
      if Float.abs (f -. a) > scale_tol *. (norm +. Float.abs f) then
        Alcotest.failf "%s[%d]: fdiff %.10g adjoint %.10g" label i f a)
    fd

(* The Pade pair of [out] from the first three moments of the deck's
   first source, each moment solved by [solve] with C applied by
   [cmul]. *)
let moment_coeffs ~solve ~cmul b out =
  let y0 = solve b in
  let y1 = Array.map Float.neg (solve (cmul y0)) in
  let y2 = Array.map Float.neg (solve (cmul y1)) in
  let p = out - 1 in
  let m0 = y0.(p) and m1 = y1.(p) and m2 = y2.(p) in
  let b1 = -.(m1 /. m0) in
  let b2 = ((m1 /. m0) *. (m1 /. m0)) -. (m2 /. m0) in
  { Rlc_core.Pade.b1; b2 }

(* ... through a dense LU: an independent reference *)
let dense_coeffs ws out =
  let asm = Whatif.assembly ws in
  let lu = Lu.decompose (Assembly.dense_g asm) in
  moment_coeffs ~solve:(Lu.solve lu)
    ~cmul:(Matrix.mul_vec (Assembly.dense_c asm))
    (Assembly.b_column asm 0) out

(* ... through the sparse DC factor the workspace compiles: the same
   moments, bit for bit *)
let sparse_coeffs ws netlist out =
  let asm = Whatif.assembly ws in
  let factor = Dc.factor (Dc.make ~assembly:asm netlist) in
  moment_coeffs
    ~solve:(Solver.solve asm.Assembly.plan factor)
    ~cmul:(Assembly.Coo.mul_vec asm.Assembly.c)
    (Assembly.b_column asm 0) out

(* A strongly overdamped deck: a 1 kOhm driver into 1 pF behind one
   short segment, b2/b1^2 ~ 5e-5. *)
let overdamped_deck ?(overrides = []) () =
  let ov name kind default =
    match
      List.find_opt (fun (n, k, _) -> String.equal n name && k = kind) overrides
    with
    | Some (_, _, v) -> v
    | None -> default
  in
  let n = Netlist.create () in
  let src = Netlist.fresh_node n in
  Netlist.add_vsource ~name:"vin" n src Netlist.ground (Stimulus.Dc 1.0);
  let drv = Netlist.fresh_node n in
  Netlist.add_resistor ~name:"rs" n src drv (ov "rs" `R 1000.0);
  let out = Netlist.fresh_node n in
  Netlist.add_rl_branch ~name:"seg" n drv out ~ohms:(ov "seg" `R 2.0)
    ~henries:(ov "seg" `L 5e-11);
  Netlist.add_capacitor ~name:"cl" n out Netlist.ground (ov "cl" `C 1e-12);
  (n, out)

(* Feed the deck's moments to the core Delay.of_coeffs: the workspace
   solves its crossing with that same function, so on the same moments
   the delays are bit-equal, and on densely computed moments they agree
   to near machine precision. *)
let test_delay_matches_core () =
  let netlist, out = ladder ~segments:6 () in
  let ws = Whatif.compile netlist in
  let ws9 = Whatif.compile ~f:0.9 netlist in
  let cs = sparse_coeffs ws netlist out in
  check_bits "two-pole crossing"
    (Rlc_core.Delay.of_coeffs ~f:0.5 cs)
    (Whatif.evaluate ws (Whatif.Delay out));
  check_bits "f = 0.9"
    (Rlc_core.Delay.of_coeffs ~f:0.9 cs)
    (Whatif.evaluate ws9 (Whatif.Delay out));
  let dense = dense_coeffs ws out in
  check_rel ~tol:1e-12 "dense moments"
    (Rlc_core.Delay.of_coeffs ~f:0.5 dense)
    (Whatif.evaluate ws (Whatif.Delay out));
  (* and a non-default threshold *)
  check_rel ~tol:1e-12 "dense moments, f = 0.9"
    (Rlc_core.Delay.of_coeffs ~f:0.9 dense)
    (Whatif.evaluate ws9 (Whatif.Delay out));
  (* the overdamped deck: evaluate and gradient finite, the gradient
     equal to central differences of fresh compiles, compared as
     elasticities (v / tau) dtau/dv *)
  let netlist, out = overdamped_deck () in
  let ws = Whatif.compile netlist in
  let cs = sparse_coeffs ws netlist out in
  if cs.b2 /. (cs.b1 *. cs.b1) > 1e-4 then
    Alcotest.failf "deck not strongly overdamped: b2/b1^2 = %g"
      (cs.b2 /. (cs.b1 *. cs.b1));
  let tau = Whatif.evaluate ws (Whatif.Delay out) in
  check_bits "overdamped crossing" (Rlc_core.Delay.of_coeffs cs) tau;
  let specs = [ ("rs", `R); ("seg", `R); ("seg", `L); ("cl", `C) ] in
  let wrt =
    Array.of_list (List.map (fun (n, k) -> Whatif.param ws n k) specs)
  in
  let adj = Whatif.gradient ws (Whatif.Delay out) ~wrt in
  let fresh =
    Array.of_list
      (List.map
         (fun (name, kind) ->
           let v = Whatif.base_value (Whatif.param ws name kind) in
           let at x =
             let nl, o = overdamped_deck ~overrides:[ (name, kind, x) ] () in
             Whatif.evaluate (Whatif.compile nl) (Whatif.Delay o)
           in
           let h = 1e-6 *. v in
           v /. tau *. (at (v +. h) -. at (v -. h)) /. (2.0 *. h))
         specs)
  in
  let elastic =
    Array.mapi (fun i g -> Whatif.base_value wrt.(i) /. tau *. g) adj
  in
  Array.iter
    (fun e ->
      if not (Float.is_finite e) then Alcotest.fail "non-finite gradient")
    (Array.append fresh elastic);
  check_gradients "overdamped delay" 1e-6 (fresh, elastic)

(* ---------------- AC magnitude ---------------- *)

let test_ac_matches_fresh () =
  let segments = 8 in
  let netlist, out = ladder ~segments () in
  let ws = Whatif.compile netlist in
  let omega = 2.0 *. Float.pi *. 2e9 in
  let reference_mag overrides =
    let nl, _ = ladder ~segments ~overrides () in
    let asm = Assembly.of_netlist nl in
    let rhs = Array.map Cx.of_float (Assembly.b_column asm 0) in
    let x = Assembly.solve_complex asm ~s:(Cx.make 0.0 omega) ~rhs in
    Cx.norm x.(out - 1)
  in
  check_close ~tol:1e-12 "base |V|"
    (reference_mag [])
    (Whatif.evaluate ws (Whatif.Ac_mag (out, omega)));
  let st = Random.State.make [| 99 |] in
  let specs = all_param_specs segments in
  for trial = 1 to 8 do
    let overrides = random_overrides st specs (1 + Random.State.int st 3) in
    let set =
      List.map (fun (n, kd, v) -> (Whatif.param ws n kd, v)) overrides
    in
    check_close ~tol:1e-9
      (Printf.sprintf "trial %d |V|" trial)
      (reference_mag overrides)
      (Whatif.evaluate ~set ws (Whatif.Ac_mag (out, omega)))
  done;
  if (Whatif.stats ws).Whatif.updates = 0 then
    Alcotest.fail "AC fast path never taken"

(* ---------------- coupled lines: `L and `M ---------------- *)

let coupled_deck ?(overrides = []) () =
  let ov name kind default =
    match
      List.find_opt (fun (n, k, _) -> String.equal n name && k = kind) overrides
    with
    | Some (_, _, v) -> v
    | None -> default
  in
  let n = Netlist.create () in
  let src = Netlist.fresh_node n in
  Netlist.add_vsource ~name:"vin" n src Netlist.ground (Stimulus.Dc 1.0) ;
  let a1 = Netlist.fresh_node n in
  Netlist.add_resistor ~name:"rs" n src a1 60.0;
  let b1 = Netlist.fresh_node n in
  let a2 = Netlist.fresh_node n in
  let b2 = Netlist.fresh_node n in
  Netlist.add_coupled_rl ~name:"bus" n ~a1 ~b1 ~a2 ~b2
    ~ohms:(ov "bus" `R 15.0)
    ~henries:(ov "bus" `L 4e-10)
    ~mutual:(ov "bus" `M 1.5e-10);
  Netlist.add_capacitor ~name:"cl1" n b1 Netlist.ground 8e-14;
  Netlist.add_capacitor ~name:"cl2" n b2 Netlist.ground 8e-14;
  Netlist.add_resistor ~name:"rnear" n a2 Netlist.ground 50.0;
  Netlist.add_resistor ~name:"rfar" n b2 Netlist.ground 200.0;
  Netlist.add_resistor ~name:"rload" n b1 Netlist.ground 1000.0;
  (n, b1)

let test_coupled_mutual_perturbation () =
  let netlist, out = coupled_deck () in
  let ws = Whatif.compile netlist in
  let cases =
    [ ("bus", `R, 22.0); ("bus", `L, 6e-10); ("bus", `M, 0.9e-10) ]
  in
  List.iter
    (fun (name, kind, value) ->
      let fresh =
        Whatif.compile (fst (coupled_deck ~overrides:[ (name, kind, value) ] ()))
      in
      let set = [ (Whatif.param ws name kind, value) ] in
      List.iter
        (fun (label, target) ->
          check_rel ~tol:1e-9
            (Printf.sprintf "%s %s" name label)
            (Whatif.evaluate fresh target)
            (Whatif.evaluate ~set ws target))
        (targets out))
    cases

(* ---------------- adjoint vs finite differences ---------------- *)

(* The reference: central differences of the evaluation in coordinates
   relative to the evaluation point, value_i = v_i (1 + x_i) at x = 0,
   so Fdiff's step of 1e-6 (1 + |x|) is 1e-6 of each value (an absolute
   step would push a femtofarad capacitance negative). *)
let gradient_pair ws target wrt set =
  let v0 =
    Array.map
      (fun p ->
        match List.assq_opt p set with
        | Some v -> v
        | None -> Whatif.base_value p)
      wrt
  in
  let obj = Whatif.objective ws target ~wrt in
  let fd =
    Fdiff.gradient
      (fun x -> obj (Array.mapi (fun i xi -> v0.(i) *. (1.0 +. xi)) x))
      (Array.make (Array.length wrt) 0.0)
  in
  (Array.mapi (fun i g -> g /. v0.(i)) fd, Whatif.gradient ~set ws target ~wrt)

let test_adjoint_matches_fdiff () =
  let segments = 8 in
  let netlist, out = ladder ~segments () in
  let ws = Whatif.compile netlist in
  let wrt =
    [| Whatif.param ws "rs" `R;
       Whatif.param ws "seg2" `R;
       Whatif.param ws "seg5" `L;
       Whatif.param ws "cap3" `C;
       Whatif.param ws "cap8" `C;
       Whatif.param ws "rload" `R |]
  in
  let omega = 2.0 *. Float.pi *. 1.5e9 in
  check_gradients "dc" 1e-6 (gradient_pair ws (Whatif.Dc_voltage out) wrt []);
  check_gradients "delay" 1e-6 (gradient_pair ws (Whatif.Delay out) wrt []);
  check_gradients "ac" 1e-6
    (gradient_pair ws (Whatif.Ac_mag (out, omega)) wrt []);
  (* and away from the base point *)
  let set =
    [ (Whatif.param ws "seg2" `R, 11.0); (Whatif.param ws "cap3" `C, 7e-14) ]
  in
  check_gradients "dc offset" 1e-6
    (gradient_pair ws (Whatif.Dc_voltage out) wrt set);
  check_gradients "delay offset" 1e-6
    (gradient_pair ws (Whatif.Delay out) wrt set);
  check_gradients "ac offset" 1e-6
    (gradient_pair ws (Whatif.Ac_mag (out, omega)) wrt set)

let test_adjoint_coupled () =
  let netlist, out = coupled_deck () in
  let ws = Whatif.compile netlist in
  let wrt =
    [| Whatif.param ws "bus" `R;
       Whatif.param ws "bus" `L;
       Whatif.param ws "bus" `M |]
  in
  check_gradients "coupled delay" 1e-6
    (gradient_pair ws (Whatif.Delay out) wrt [])

(* ---------------- the unified objective interface ---------------- *)

let test_objective_record () =
  let netlist, out = ladder () in
  let ws = Whatif.compile netlist in
  let wrt = [| Whatif.param ws "seg2" `R; Whatif.param ws "cap3" `C |] in
  let obj = Whatif.objective ws (Whatif.Delay out) ~wrt in
  let x = [| 11.0; 7e-14 |] in
  check_bits "objective = evaluate"
    (Whatif.evaluate
       ~set:[ (wrt.(0), x.(0)); (wrt.(1), x.(1)) ]
       ws (Whatif.Delay out))
    (obj x);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Whatif.objective: parameter vector length mismatch")
    (fun () -> ignore (obj [| 1.0 |]))

(* ---------------- structural keys ---------------- *)

let test_structural_key_pairing () =
  let netlist, _ = ladder () in
  let key = Netlist.structural_key netlist in
  Alcotest.(check string) "hash component"
    (Netlist.structural_hash netlist) key.Netlist.hash;
  Alcotest.(check string) "signature component"
    (Netlist.structural_signature netlist) key.Netlist.signature;
  Alcotest.(check bool) "self-reusable" true
    (Netlist.key_reusable ~cached:key ~probe:key);
  let alias = { key with Netlist.signature = key.Netlist.signature ^ "x" } in
  Alcotest.(check bool) "signature mismatch" false
    (Netlist.key_reusable ~cached:key ~probe:alias)

(* The alias-safety regression: a probe whose hash matches a cached
   entry but whose signature differs must never be served the cached
   artifacts, and the key-based insert refuses a signature that
   disagrees with its key — the recombination bug the loose
   hash/signature arguments allowed. *)
let test_deck_cache_key_api () =
  let netlist, _ = ladder () in
  let key = Netlist.structural_key netlist in
  let asm = Assembly.of_netlist netlist in
  let entry =
    { Rlc_serve.Deck_cache.signature = key.Netlist.signature;
      asm_plan = asm.Assembly.plan; dc_sym = None; ac_sym = None;
      tran_plan = None }
  in
  let cache = Rlc_serve.Deck_cache.create () in
  Rlc_serve.Deck_cache.insert_key cache key entry;
  (match Rlc_serve.Deck_cache.find_key cache key with
  | Rlc_serve.Deck_cache.Hit e ->
      Alcotest.(check string) "hit signature" key.Netlist.signature
        e.Rlc_serve.Deck_cache.signature
  | _ -> Alcotest.fail "expected hit");
  let alias = { key with Netlist.signature = "impostor" } in
  (match Rlc_serve.Deck_cache.find_key cache alias with
  | Rlc_serve.Deck_cache.Alias -> ()
  | _ -> Alcotest.fail "expected alias");
  (match Rlc_serve.Deck_cache.insert_key cache alias entry with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "insert_key must reject a mismatched signature")

(* ---------------- the serve delay-sens query ---------------- *)

let test_serve_delay_sens () =
  let deck =
    "v1 src 0 dc 1\n\
     rs src a 60\n\
     bseg a b r=10 l=2e-10\n\
     c1 b 0 8e-14\n\
     rl b 0 900\n"
  in
  let line =
    Printf.sprintf "j1 delay-sens b 0.5 bseg:r bseg:l c1:c | %s"
      (Rlc_serve.Protocol.escape_deck deck)
  in
  let service = Rlc_serve.Service.create () in
  let field tok =
    match String.index_opt tok '=' with
    | Some i ->
        ( String.sub tok 0 i,
          float_of_string
            (String.sub tok (i + 1) (String.length tok - i - 1)) )
    | None -> Alcotest.failf "bad field %S" tok
  in
  match Rlc_serve.Service.process_lines service [ line ] with
  | [ resline ] -> begin
      match String.split_on_char ' ' resline with
      | "ok" :: "j1" :: "delay-sens" :: tau_tok :: sens_toks ->
          let _, tau = field tau_tok in
          if not (tau > 0.0) then Alcotest.fail "tau must be positive";
          Alcotest.(check int) "three sensitivities" 3
            (List.length sens_toks);
          (* %.17g round-trips doubles exactly, so the wire values must
             be bit-identical to the workspace adjoint *)
          let netlist = (Parser.parse_string deck).Parser.netlist in
          let out =
            match Netlist.find_node netlist "b" with
            | Some n -> n
            | None -> Alcotest.fail "node b"
          in
          let ws = Whatif.compile ~f:0.5 netlist in
          let wrt =
            [| Whatif.param ws "bseg" `R; Whatif.param ws "bseg" `L;
               Whatif.param ws "c1" `C |]
          in
          let g = Whatif.gradient ws (Whatif.Delay out) ~wrt in
          List.iteri
            (fun i tok ->
              let name, v = field tok in
              if Float.is_nan v then Alcotest.failf "%s is nan" name;
              check_bits name g.(i) v)
            sens_toks;
          check_bits "tau" (Whatif.evaluate ws (Whatif.Delay out)) tau
      | "err" :: _ -> Alcotest.failf "delay-sens errored: %s" resline
      | _ -> Alcotest.failf "unexpected result line %S" resline
    end
  | _ -> Alcotest.fail "expected one delay-sens result"

(* ---------------- bit pins ---------------- *)

(* A 3 x 3 RC mesh driven at one corner and loaded at the other, with
   a sense node hung off the load corner by a coupling capacitor and
   terminated by 1 ohm to ground.  At DC that terminator is the sense
   node's only path, so setting it to 1e300 ohm makes the rank-1
   capacitance matrix 1 - (1/R)(R) exactly 0: the singular-S path. *)
let rc_grid () =
  let n = Netlist.create () in
  let src = Netlist.fresh_node ~name:"src" n in
  Netlist.add_vsource ~name:"vin" n src Netlist.ground (Stimulus.Dc 1.0);
  let g =
    Array.init 3 (fun i ->
        Array.init 3 (fun j ->
            Netlist.fresh_node ~name:(Printf.sprintf "g%d%d" i j) n))
  in
  Netlist.add_resistor ~name:"rdrv" n src g.(0).(0) 50.0;
  for i = 0 to 2 do
    for j = 0 to 2 do
      let k = float_of_int ((3 * i) + j) in
      if j < 2 then
        Netlist.add_resistor ~name:(Printf.sprintf "rh%d%d" i j) n g.(i).(j)
          g.(i).(j + 1) (20.0 +. k);
      if i < 2 then
        Netlist.add_resistor ~name:(Printf.sprintf "rv%d%d" i j) n g.(i).(j)
          g.(i + 1).(j) (30.0 -. k);
      Netlist.add_capacitor ~name:(Printf.sprintf "c%d%d" i j) n g.(i).(j)
        Netlist.ground (1e-13 +. (1e-14 *. k))
    done
  done;
  Netlist.add_resistor ~name:"rload" n g.(2).(2) Netlist.ground 800.0;
  let sense = Netlist.fresh_node ~name:"sense" n in
  Netlist.add_capacitor ~name:"csense" n g.(2).(2) sense 2e-14;
  Netlist.add_resistor ~name:"rsense" n sense Netlist.ground 1.0;
  (n, g.(2).(2))

(* Per deck: the netlist, the probed node, the gradient's parameters,
   a setting the fast path serves, one over rank 2 for the rank guard
   (max_rank 2), a rank-2 setting for the condition guard, and a
   setting whose capacitance matrix is singular, if the deck has
   one. *)
let pin_decks () =
  let coupled =
    let deck = Parser.parse_file "../examples/netlists/coupled_pair.sp" in
    let nl = deck.Parser.netlist in
    (nl, Option.get (Netlist.find_node nl "a2"))
  in
  [
    ( ladder ~segments:6 (),
      [ ("rs", `R); ("seg2", `R); ("seg3", `L); ("cap4", `C); ("rload", `R) ],
      [ ("seg2", `R, 11.0); ("cap4", `C, 7e-14) ],
      [ ("seg1", `R, 12.0); ("seg4", `R, 4.0); ("seg6", `R, 15.0) ],
      [ ("seg2", `R, 80.0); ("seg5", `R, 3.0) ],
      [] );
    ( coupled,
      [ ("P1", `R); ("P1", `L); ("P1", `M); ("Ra", `R); ("Ca", `C) ],
      [ ("P1", `M, 4.1e-9); ("Ra", `R, 30.0) ],
      [ ("P1", `R, 30.0); ("Ra", `R, 20.0); ("Rb", `R, 33.0) ],
      [ ("Ra", `R, 40.0); ("Rb", `R, 12.0) ],
      [] );
    ( rc_grid (),
      [ ("rdrv", `R); ("rh11", `R); ("rv01", `R); ("c12", `C); ("rload", `R) ],
      [ ("rh11", `R, 31.0) ],
      [ ("rh00", `R, 9.0); ("rv10", `R, 44.0); ("rh21", `R, 7.0) ],
      [ ("rh01", `R, 90.0); ("rv11", `R, 2.0) ],
      [ ("rsense", `R, 1e300) ] );
  ]

(* The %h bits of [evaluate] and [gradient] for all three targets on
   every serving path (base point, Woodbury update, rank guard,
   condition guard, singular S, a max_rank 0 refactor) and each
   workspace's stats.  Recorded before the workspace's fills, guards
   and handle constructors were merged; a refactor that keeps every
   float operation in order passes it unedited. *)
let whatif_digest = "795d9aa7b20c186838d2d73f8d024321"

let test_whatif_bits_pinned () =
  let buf = Buffer.create 4096 in
  let omega = 2.0 *. Float.pi *. 1.2e9 in
  List.iter
    (fun ((netlist, out), specs, fast, rank, cond, singular) ->
      let run ?max_rank ?condition_limit settings =
        let ws = Whatif.compile ?max_rank ?condition_limit netlist in
        let wrt =
          Array.of_list (List.map (fun (n, k) -> Whatif.param ws n k) specs)
        in
        let set =
          List.map (fun (n, k, v) -> (Whatif.param ws n k, v)) settings
        in
        List.iter
          (fun target ->
            Printf.bprintf buf "%h;" (Whatif.evaluate ~set ws target);
            Array.iter (Printf.bprintf buf "%h,")
              (Whatif.gradient ~set ws target ~wrt))
          Whatif.[ Dc_voltage out; Delay out; Ac_mag (out, omega) ];
        let s = Whatif.stats ws in
        Printf.bprintf buf "|%d %d %d\n" s.Whatif.updates s.Whatif.refactors
          s.Whatif.fallbacks
      in
      run [];
      run fast;
      run ~max_rank:2 rank;
      run ~condition_limit:(1.0 +. 1e-12) cond;
      if singular <> [] then run singular;
      run ~max_rank:0 fast)
    (pin_decks ());
  Alcotest.(check string) "digest" whatif_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "whatif"
    [
      ( "update kernel",
        [
          Alcotest.test_case "matches dense refactor" `Quick
            test_update_matches_dense;
          Alcotest.test_case "precomputed z identical" `Quick
            test_update_precomputed_z;
          Alcotest.test_case "singular S" `Quick test_update_singular;
          Alcotest.test_case "complex twin" `Quick test_update_complex;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "base point, no solve" `Quick
            test_base_point_no_solve;
          Alcotest.test_case "random perturbations vs fresh" `Quick
            test_random_perturbations_match_fresh;
          Alcotest.test_case "update vs refactor paths" `Quick
            test_update_vs_refactor_paths;
          Alcotest.test_case "guard fallbacks" `Quick test_guard_fallbacks;
          Alcotest.test_case "rejection convention" `Quick
            test_rejection_convention;
          Alcotest.test_case "delay matches analytic core" `Quick
            test_delay_matches_core;
          Alcotest.test_case "ac matches fresh compile" `Quick
            test_ac_matches_fresh;
          Alcotest.test_case "coupled r/l/m perturbations" `Quick
            test_coupled_mutual_perturbation;
          Alcotest.test_case "whatif bits pinned" `Quick
            test_whatif_bits_pinned;
        ] );
      ( "adjoint",
        [
          Alcotest.test_case "matches finite differences" `Quick
            test_adjoint_matches_fdiff;
          Alcotest.test_case "coupled bus gradients" `Quick
            test_adjoint_coupled;
        ] );
      ( "unified api",
        [
          Alcotest.test_case "objective record" `Quick test_objective_record;
        ] );
      ( "structural keys",
        [
          Alcotest.test_case "pairing helper" `Quick
            test_structural_key_pairing;
          Alcotest.test_case "deck cache key api" `Quick
            test_deck_cache_key_api;
        ] );
      ( "serve",
        [
          Alcotest.test_case "delay-sens query" `Quick test_serve_delay_sens;
        ] );
    ]
