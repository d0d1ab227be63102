(* Tests for rlc_parallel: determinism of the domain pool across domain
   counts (the load-bearing property — parallelism must never change a
   float), chunking edge cases, error propagation, and the pooled
   consumers (sweeps, Monte-Carlo, adaptive transient, AC). *)

module Pool = Rlc_parallel.Pool

let pools () = List.map (fun d -> Pool.create ~domains:d ()) [ 1; 2; 4 ]

let check_bits name expected actual =
  Alcotest.(check (list int64))
    name
    (List.map Int64.bits_of_float expected)
    (List.map Int64.bits_of_float actual)

(* ---------------- Pool basics ---------------- *)

let test_default_domains () =
  let d = Pool.default_domains () in
  Alcotest.(check bool) "at least one domain" true (d >= 1);
  Alcotest.(check int) "sequential pool has one domain" 1
    (Pool.domains Pool.sequential);
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 ()))

let test_map_identity () =
  List.iter
    (fun pool ->
      let xs = Array.init 37 float_of_int in
      let ys = Pool.map pool (fun x -> (x *. 3.0) +. 1.0) xs in
      Array.iteri
        (fun i x ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "slot %d (%d domains)" i (Pool.domains pool))
            ((x *. 3.0) +. 1.0)
            ys.(i))
        xs)
    (pools ())

let test_map_edge_cases () =
  List.iter
    (fun pool ->
      let tag = Printf.sprintf "(%d domains)" (Pool.domains pool) in
      (* empty input *)
      Alcotest.(check int)
        ("empty " ^ tag) 0
        (Array.length (Pool.map pool (fun x -> x +. 1.0) [||]));
      (* fewer items than domains *)
      let two = Pool.map pool (fun x -> x *. 2.0) [| 1.0; 2.0 |] in
      Alcotest.(check (float 0.0)) ("n < domains fst " ^ tag) 2.0 two.(0);
      Alcotest.(check (float 0.0)) ("n < domains snd " ^ tag) 4.0 two.(1);
      (* chunk = 1 covers every slot exactly once *)
      let seen = Array.make 11 0 in
      let _ =
        Pool.mapi ~chunk:1 pool
          (fun i () ->
            seen.(i) <- seen.(i) + 1;
            i)
          (Array.make 11 ())
      in
      Array.iteri
        (fun i n ->
          Alcotest.(check int) (Printf.sprintf "slot %d once %s" i tag) 1 n)
        seen)
    (pools ())

let test_map_list_order () =
  List.iter
    (fun pool ->
      Alcotest.(check (list string))
        (Printf.sprintf "order kept (%d domains)" (Pool.domains pool))
        [ "a!"; "b!"; "c!"; "d!"; "e!" ]
        (Pool.map_list pool (fun s -> s ^ "!") [ "a"; "b"; "c"; "d"; "e" ]))
    (pools ())

let test_map_reduce () =
  List.iter
    (fun pool ->
      (* fold order is the slot order, so float accumulation is exact
         across domain counts *)
      let xs = Array.init 1000 (fun i -> 1.0 /. float_of_int (i + 1)) in
      let total =
        Pool.map_reduce pool ~map:(fun x -> x *. x) ~reduce:( +. ) ~init:0.0 xs
      in
      let expected = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "bitwise fold (%d domains)" (Pool.domains pool))
        expected total)
    (pools ())

let test_exception_propagation () =
  List.iter
    (fun pool ->
      let tag = Printf.sprintf "(%d domains)" (Pool.domains pool) in
      Alcotest.check_raises ("map raises " ^ tag) (Failure "boom") (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x = 5.0 then failwith "boom" else x)
               (Array.init 20 float_of_int))))
    (pools ())

(* ---------------- Determinism of the pooled consumers ------------- *)

let sweep_floats pool =
  let s =
    Rlc_experiments.Sweeps.run ~pool ~n:9 Rlc_tech.Presets.node_100nm
  in
  List.concat_map
    (fun (p : Rlc_experiments.Sweeps.point) ->
      [
        p.Rlc_experiments.Sweeps.l;
        p.Rlc_experiments.Sweeps.l_crit;
        p.Rlc_experiments.Sweeps.h_ratio;
        p.Rlc_experiments.Sweeps.k_ratio;
        p.Rlc_experiments.Sweeps.delay_ratio;
        p.Rlc_experiments.Sweeps.rc_sized_penalty;
      ])
    s.Rlc_experiments.Sweeps.points

let test_sweep_determinism () =
  match List.map sweep_floats (pools ()) with
  | [ one; two; four ] ->
      check_bits "1 vs 2 domains" one two;
      check_bits "1 vs 4 domains" one four
  | _ -> assert false

let monte_carlo_floats pool =
  let node = Rlc_tech.Presets.node_100nm in
  let rc = Rlc_core.Rc_opt.optimize node in
  let s =
    Rlc_core.Variation.delay_statistics ~pool ~seed:7 ~n:256 node
      ~h:rc.Rlc_core.Rc_opt.h_opt ~k:rc.Rlc_core.Rc_opt.k_opt
      (Rlc_core.Variation.default_distribution node)
  in
  [
    s.Rlc_core.Variation.mean; s.Rlc_core.Variation.stddev;
    s.Rlc_core.Variation.min; s.Rlc_core.Variation.max;
    s.Rlc_core.Variation.p95;
  ]

let test_monte_carlo_determinism () =
  match List.map monte_carlo_floats (pools ()) with
  | [ one; two; four ] ->
      check_bits "1 vs 2 domains" one two;
      check_bits "1 vs 4 domains" one four
  | _ -> assert false

let test_corners_determinism () =
  let node = Rlc_tech.Presets.node_100nm in
  let rc = Rlc_core.Rc_opt.optimize node in
  let h = rc.Rlc_core.Rc_opt.h_opt and k = rc.Rlc_core.Rc_opt.k_opt in
  let windows =
    List.map
      (fun pool ->
        let lo, hi = Rlc_core.Corners.delay_window ~pool node ~h ~k in
        [ lo; hi ])
      (pools ())
  in
  match windows with
  | [ one; two; four ] ->
      check_bits "1 vs 2 domains" one two;
      check_bits "1 vs 4 domains" one four
  | _ -> assert false

let test_ac_determinism () =
  let open Rlc_circuit in
  let nl = Netlist.create () in
  let src = Netlist.fresh_node nl in
  Netlist.add_vsource nl src Netlist.ground (Stimulus.Dc 1.0);
  let far = Netlist.fresh_node nl in
  Ladder.make nl
    { Ladder.r = 4400.0; l = 1.5e-6; c = 123.33e-12; length = 0.011;
      segments = 8 }
    ~from_node:src ~to_node:far;
  let asm = Assembly.of_netlist nl in
  let freqs = Ac.decade_grid ~points_per_decade:7 ~fstart:1e7 ~fstop:1e10 in
  let run pool =
    Array.to_list (Ac.bode ~pool asm ~node:far ~freqs)
    |> List.concat_map (fun (p : Ac.point) ->
           [ p.Ac.freq; p.Ac.mag_db; p.Ac.phase_deg ])
  in
  match List.map run (pools ()) with
  | [ one; two; four ] ->
      check_bits "1 vs 2 domains" one two;
      check_bits "1 vs 4 domains" one four
  | _ -> assert false

(* ---------------- Formatter capture ---------------- *)

let capture f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_print_to_formatter () =
  let rows = Rlc_experiments.Table1.compute () in
  let out = capture (fun ppf -> Rlc_experiments.Table1.print ~ppf rows) in
  Alcotest.(check bool) "table captured" true (contains out "Table 1")

let test_section_format () =
  let out = capture (fun ppf -> Rlc_report.Report.section ~ppf "Title") in
  Alcotest.(check string) "section layout" "\nTitle\n=====\n\n" out;
  let line = capture (fun ppf -> Rlc_report.Report.line ~ppf "x=%d" 3) in
  Alcotest.(check string) "line layout" "x=3\n" line

let () =
  Alcotest.run "rlc_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "default domains" `Quick test_default_domains;
          Alcotest.test_case "map identity" `Quick test_map_identity;
          Alcotest.test_case "edge cases" `Quick test_map_edge_cases;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "exceptions" `Quick test_exception_propagation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4-8 sweep" `Quick test_sweep_determinism;
          Alcotest.test_case "monte-carlo" `Quick test_monte_carlo_determinism;
          Alcotest.test_case "corners" `Quick test_corners_determinism;
          Alcotest.test_case "ac bode" `Quick test_ac_determinism;
        ] );
      ( "formatters",
        [
          Alcotest.test_case "print to buffer" `Quick test_print_to_formatter;
          Alcotest.test_case "section layout" `Quick test_section_format;
        ] );
    ]
