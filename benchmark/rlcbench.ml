(* rlcbench: the repository benchmark.  Usage in README.md:

     rlcbench --workload W [--seed S] [--seconds N] [--trace 0|1] [--trace-out F]
     rlcbench run --all [--seed S] [--seconds N] [--trace 0|1]
     rlcbench repeat --sets N [--seed S] [--seconds N]
     rlcbench smoke *)

open Rlcbench_lib
module J = Rlc_instr.Jsonv

let workloads =
  [
    ("serve-sweep", Serve_wl.run ~fresh:false);
    ("serve-fresh", Serve_wl.run ~fresh:true);
    ("optimize-hk", Opt_wl.run);
    ("transient-ladder", Tran_wl.run);
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("rlcbench: " ^ m); exit 2) fmt

type opts = {
  workload : string option;
  all : bool;
  seed : int;
  seconds : int;
  trace : bool;
  trace_out : string option;
  sets : int;
}

let int_arg name v =
  match int_of_string_opt v with Some i -> i | None -> die "%s wants an integer, got %S" name v

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: r ->
      if not (List.mem_assoc w workloads) then die "unknown workload %S" w;
      parse { o with workload = Some w } r
  | "--all" :: r -> parse { o with all = true } r
  | "--seed" :: s :: r -> parse { o with seed = int_arg "--seed" s } r
  | "--seconds" :: s :: r ->
      let s = int_arg "--seconds" s in
      if s < 1 then die "--seconds must be at least 1";
      parse { o with seconds = s } r
  | "--trace" :: ("0" | "1" as t) :: r -> parse { o with trace = t = "1" } r
  | "--trace-out" :: f :: r -> parse { o with trace_out = Some f } r
  | "--sets" :: n :: r -> parse { o with sets = int_arg "--sets" n } r
  | a :: _ -> die "unexpected argument %S" a

let defaults =
  {
    workload = None;
    all = false;
    seed = 1;
    seconds = 12;
    trace = false;
    trace_out = None;
    sets = 2;
  }

let config o ~smoke =
  {
    Harness.seed = o.seed;
    seconds = float_of_int o.seconds;
    trace = o.trace;
    smoke;
    trace_out = o.trace_out;
  }

(* ------------------------------------------------------------------ *)
(* one workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let single o name =
  let m = (List.assoc name workloads) (config o ~smoke:false) in
  List.iter prerr_endline (Harness.describe name m);
  let metrics, problems =
    if o.trace then
      ( List.map
          (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n m.Harness.layers)))
          Harness.per_layer,
        [] )
    else
      match Harness.e2e_values m with
      | Ok values ->
          (List.map (fun (n, u) -> (n, u, List.assoc n values)) Harness.end_to_end, [])
      | Error e -> ([], [ e ])
  in
  let problems =
    problems
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some (n ^ " is not finite"))
        metrics
  in
  List.iter (fun p -> prerr_endline ("rlcbench: " ^ p)) problems;
  if problems <> [] then exit 1;
  let correct = m.Harness.failed = 0 in
  print_endline
    (Harness.json_line ~correct ~attempted:m.Harness.attempted ~failed:m.Harness.failed
       metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* workloads in child processes                                        *)
(* ------------------------------------------------------------------ *)

type child = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* Runs one workload in its own process, so its peak RSS and set-up are
   its own, and reads the result line it prints last. *)
let child o ~seed name =
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
       "--seconds"; string_of_int o.seconds; "--trace"; (if o.trace then "1" else "0") |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  let num k j = Option.bind (J.member k j) J.to_float in
  match (status, J.parse last) with
  | (Unix.WEXITED (0 | 1)), Ok j -> (
      match (J.member "correct" j, num "attempted" j, num "failed" j, J.member "metrics" j) with
      | Some (J.Bool correct), Some a, Some f, Some (J.Obj ms) ->
          let metrics =
            List.filter_map
              (fun (n, v) ->
                match (num "value" v, Option.bind (J.member "unit" v) J.to_string) with
                | Some x, Some u -> Some (n, x, u)
                | _ -> None)
              ms
          in
          Some { correct; attempted = int_of_float a; failed = int_of_float f; metrics }
      | _ -> None)
  | _ -> None

let print_child name c =
  List.iter (fun (n, v, u) -> Printf.printf "%-18s %-34s %14.6g %s\n" name n v u) c.metrics;
  Printf.printf "%-18s %-34s %14.6g %s  (%d of %d)\n" name "failed_frac"
    (float_of_int c.failed /. float_of_int (Int.max 1 c.attempted))
    "frac" c.failed c.attempted

let run_all o =
  if not o.all then die "usage: rlcbench run --all [--seed S] [--seconds N] [--trace 0|1]";
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      match child o ~seed:o.seed name with
      | Some c ->
          print_child name c;
          if not (c.correct && c.failed = 0) then ok := false
      | None ->
          Printf.printf "%-18s run failed\n" name;
          ok := false)
    workloads;
  flush stdout;
  if not !ok then exit 1

(* The end-to-end bounds, from BENCHMARK.json in the working directory. *)
let bounds () =
  let text =
    try In_channel.with_open_text "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "repeat reads BENCHMARK.json: %s" e
  in
  match J.parse text with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok j -> (
      match J.member "end_to_end" j with
      | Some (J.List ms) ->
          List.filter_map
            (fun m ->
              let field k conv = Option.bind (J.member k m) conv in
              match (field "name" J.to_string, field "bound" J.to_float) with
              | Some n, Some b -> Some (n, b)
              | _ -> None)
            ms
      | _ -> die "BENCHMARK.json has no end_to_end list")

(* Full sets of all workloads, alternating their order set by set, each
   set on the next seed; then every end-to-end metric's spread
   ((max - min) / median over the sets) against its bound. *)
let repeat o =
  if o.sets < 2 then die "repeat needs --sets of at least 2";
  let bounds = bounds () in
  let results = Hashtbl.create 16 and ok = ref true in
  for s = 0 to o.sets - 1 do
    let order = List.map fst workloads in
    let order = if s mod 2 = 0 then order else List.rev order in
    List.iter
      (fun name ->
        match child { o with trace = false } ~seed:(o.seed + s) name with
        | Some c when c.correct && c.failed = 0 ->
            List.iter
              (fun (n, v, _) ->
                Hashtbl.replace results (name, n)
                  (v :: Option.value ~default:[] (Hashtbl.find_opt results (name, n))))
              c.metrics
        | _ ->
            Printf.printf "set %d: %s failed\n%!" (s + 1) name;
            ok := false)
      order
  done;
  Printf.printf "%-18s %-18s %12s %8s %6s\n" "workload" "metric" "median" "spread" "bound";
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (metric, bound) ->
          match Hashtbl.find_opt results (name, metric) with
          | None -> ok := false
          | Some vs ->
              let a = Array.of_list vs in
              let spread = Stats.spread a in
              let within = spread <= bound in
              if not within then ok := false;
              Printf.printf "%-18s %-18s %12.6g %7.2f%% %5.0f%% %s\n" name metric (Stats.median a)
                (100.0 *. spread) (100.0 *. bound) (if within then "ok" else "WIDE"))
        bounds)
    workloads;
  flush stdout;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let smoke () =
  let bad = ref 0 in
  List.iter
    (fun (name, run) ->
      let t0 = Harness.now () in
      let m = run (config { defaults with trace = true } ~smoke:true) in
      Printf.printf "smoke %s: %d ops, %d failed (%.2f s)\n%!" name m.Harness.attempted
        m.Harness.failed (Harness.now () -. t0);
      if m.Harness.failed > 0 then begin
        List.iter prerr_endline (Harness.describe name m);
        incr bad
      end)
    workloads;
  if !bad > 0 then begin
    Printf.eprintf "rlcbench smoke: %d workload(s) failed verification\n" !bad;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "smoke" :: [] -> smoke ()
  | "run" :: rest -> run_all (parse defaults rest)
  | "repeat" :: rest -> repeat (parse defaults rest)
  | args -> (
      let o = parse defaults args in
      match o.workload with
      | Some w -> single o w
      | None -> die "usage: rlcbench --workload W | run --all | repeat --sets N | smoke")
