(* rlcstat: offline analysis of rlc observability artifacts.

   Three modes over the two artifact kinds the instrumented binaries
   emit:

     rlcstat [report] j1.jsonl [j2.jsonl ...]
       health/latency rollup over one or more event journals
       (written by --journal): job counts and error rates per query
       kind with exact p50/p90/p99 latencies, cache hit/miss/resym
       traffic, solver fallback and SMW guard-trip rates, health
       classifications.

     rlcstat trace j.jsonl -o trace.json
       render the journal's span events as a Chrome trace_event JSON,
       byte-identical to what --trace writes in-process for the same
       run.

     rlcstat diff old.json new.json [--threshold 0.10]
       compare two JSON snapshots (BENCH_*.json) leaf by leaf and
       flag every numeric metric whose relative change exceeds the
       threshold.  Exits 1 when anything is flagged, so it works as
       a CI regression gate; identical inputs always exit 0.

   All analysis logic lives in Rlc_instr.Stat and Rlc_instr.Trace so
   the test suite can drive it without a subprocess; this file is flag
   parsing only. *)

open Cmdliner
module Stat = Rlc_instr.Stat
module Jsonv = Rlc_instr.Jsonv
module Trace = Rlc_instr.Trace

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

(* ---------------- report ---------------- *)

let report files =
  match
    List.fold_left
      (fun (acc, sk) path ->
        let es, s = Stat.events_of_file path in
        (acc @ es, sk + s))
      ([], 0) files
  with
  | events, skipped ->
      Format.printf "%a" Stat.pp_rollup (Stat.rollup ~skipped events);
      `Ok 0
  | exception Sys_error msg -> fail "%s" msg

let journal_files =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"JOURNAL.jsonl"
        ~doc:"Event journal(s) written by --journal; merged before rollup.")

let report_term = Term.(ret (const report $ journal_files))

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Health/latency rollup over journal files (the default command).")
    report_term

(* ---------------- trace ---------------- *)

let trace journal output =
  match Stat.events_of_file journal with
  | events, _ ->
      Trace.write output events;
      `Ok 0
  | exception Sys_error msg -> fail "%s" msg

let trace_cmd =
  let journal =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL.jsonl"
          ~doc:"Event journal written by --journal.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE.json" ~doc:"Trace file to write.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render a journal's span events as a Chrome trace_event JSON \
          (load it in about:tracing or Perfetto).")
    Term.(ret (const trace $ journal $ output))

(* ---------------- diff ---------------- *)

let diff threshold old_path new_path =
  match (Jsonv.parse (read_file old_path), Jsonv.parse (read_file new_path)) with
  | Error msg, _ -> fail "%s: %s" old_path msg
  | _, Error msg -> fail "%s: %s" new_path msg
  | Ok old_json, Ok new_json ->
      let findings = Stat.diff ~threshold old_json new_json in
      List.iter
        (fun f -> Format.printf "%a@." Stat.pp_finding f)
        findings;
      if findings = [] then begin
        Format.printf "no metric moved more than %.0f%%@."
          (100.0 *. threshold);
        `Ok 0
      end
      else begin
        Format.printf "%d metric(s) moved more than %.0f%%@."
          (List.length findings)
          (100.0 *. threshold);
        `Ok 1
      end
  | exception Sys_error msg -> fail "%s" msg

let threshold_arg =
  Arg.(
    value & opt float 0.10
    & info [ "threshold" ] ~docv:"FRACTION"
        ~doc:
          "Relative change above which a metric is flagged (0.10 = 10%). \
           Leaves present in only one snapshot are never flagged.")

let old_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"OLD.json" ~doc:"Baseline snapshot.")

let new_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"NEW.json" ~doc:"Candidate snapshot.")

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Flag numeric metrics that moved more than the threshold between \
          two JSON snapshots; exit 1 when any did.")
    Term.(ret (const diff $ threshold_arg $ old_arg $ new_arg))

(* ---------------- entry point ---------------- *)

let () =
  let info =
    Cmd.info "rlcstat" ~version:"%%VERSION%%"
      ~doc:"Analyse rlc event journals and bench snapshots."
  in
  (* [rlcstat j.jsonl] should mean [rlcstat report j.jsonl]: a first
     positional that is not a known command name routes to report. *)
  let argv =
    let v = Sys.argv in
    if
      Array.length v > 1
      && String.length v.(1) > 0
      && v.(1).[0] <> '-'
      && not (List.mem v.(1) [ "diff"; "report"; "trace" ])
    then Array.concat [ [| v.(0); "report" |]; Array.sub v 1 (Array.length v - 1) ]
    else v
  in
  exit
    (Cmd.eval' ~argv
       (Cmd.group ~default:report_term info
          [ report_cmd; trace_cmd; diff_cmd ]))
