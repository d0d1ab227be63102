(* Shared command-line wiring for the rlc binaries: the --stats /
   --trace / --journal instrumentation switches and the -j/--jobs pool
   sizing.  Keeping them here makes rlcopt, rlcsim and rlcserved flag-compatible
   (one doc string, one default, one Control.setup call). *)

open Cmdliner

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print solver/engine/pool metrics and span timings to stderr on \
           exit ($(b,RLC_STATS=1) enables the recording by default). \
           Recording never changes any computed result.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~doc:
          "Write a Chrome trace_event JSON of all recorded spans to \
           $(docv) on exit (load it in about:tracing or Perfetto). \
           Spans are journal events, so this turns journal capture on \
           (and with it recording); $(b,rlcstat trace) renders the same \
           file offline from a $(b,--journal) file.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write the structured event journal (job lifecycle, cache \
           traffic, solver fallbacks, numerical-health events, spans — \
           one JSON object per line, each tagged with its job's \
           provenance id) to $(docv) on exit.  Implies enabling recording.  Analyse with \
           $(b,rlcstat).")

(* Prepend to a subcommand's term: runs Control.setup before the
   command body, so at-exit dumps are registered first. *)
let term =
  Term.(
    const (fun stats trace journal ->
        Rlc_instr.Control.setup ~stats ?trace ?journal ())
    $ stats_arg $ trace_arg $ journal_arg)

let jobs_arg ~doc =
  Arg.(
    value
    & opt int (Rlc_parallel.Pool.default_domains ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let default_jobs_doc =
  "Worker domains for the parallel fan-outs (default: $(b,RLC_JOBS) or \
   the machine's recommended domain count). Results are bit-identical \
   for any value."

let pool_of_jobs jobs = Rlc_parallel.Pool.create ~domains:jobs ()
