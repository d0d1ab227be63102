let env_stats =
  Shard.truthy (Sys.getenv_opt "RLC_STATS")

let enabled () = !Shard.enabled
let set_enabled v = Shard.enabled := v

let dump ?(ppf = Format.err_formatter) () =
  Format.fprintf ppf "== rlc_instr metrics ==@.";
  Metrics.dump ppf;
  let spans = Span.trees () in
  if spans <> [] then begin
    Format.fprintf ppf "@.== rlc_instr spans ==@.";
    Span.dump_tree ppf
  end;
  let health = Health.report () in
  if health.Health.solves > 0 then begin
    Format.fprintf ppf "@.== rlc_instr health ==@.";
    Health.pp_report ppf health
  end;
  let dropped = Journal.dropped () in
  if dropped > 0 then
    Format.fprintf ppf "@.(journal buffer overflow: %d events dropped)@."
      dropped;
  Format.pp_print_flush ppf ()

let write_at_exit what path write =
  at_exit (fun () ->
      try write path
      with Sys_error msg ->
        Printf.eprintf "rlc_instr: cannot write %s %s: %s\n%!" what path msg)

let setup ?(stats = false) ?trace ?journal () =
  if stats || env_stats then set_enabled true;
  if trace <> None || journal <> None then Journal.start ();
  Option.iter
    (fun path ->
      write_at_exit "trace" path (fun p -> Trace.write p (Journal.events ())))
    trace;
  Option.iter (fun path -> write_at_exit "journal" path Journal.write) journal;
  if stats then at_exit (fun () -> dump ())
