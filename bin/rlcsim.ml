(* rlcsim -- run a SPICE-flavoured netlist on the MNA engines.

   Usage:  rlcsim CIRCUIT.sp [--csv OUT.csv]          transient (.tran card)
           rlcsim CIRCUIT.sp --ac [--csv OUT.csv]     AC sweep (.ac card) *)

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"NETLIST" ~doc:"Netlist file (see Rlc_circuit.Parser).")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Dump all probe waveforms as CSV.")

let ac_arg =
  Arg.(
    value & flag
    & info [ "ac" ]
        ~doc:
          "Run the deck's .ac small-signal sweep instead of the transient \
           analysis; probed node voltages become Bode responses.")

let jobs_arg =
  Instr_cli.jobs_arg
    ~doc:
      "Worker domains for the AC sweep's frequency points (the transient \
       analysis is sequential). Default: $(b,RLC_JOBS) or the machine's \
       recommended domain count. Results are bit-identical for any value."

let instr_term = Instr_cli.term

let probe_label deck = function
  | Rlc_circuit.Transient.Node_v n ->
      Printf.sprintf "v(%s)"
        (Option.value ~default:(Printf.sprintf "node%d" n)
           (Rlc_circuit.Parser.name_of_node deck n))
  | Rlc_circuit.Transient.Branch_i name -> Printf.sprintf "i(%s)" name

let summarize deck result probe =
  let w = Rlc_circuit.Transient.get result probe in
  let values = Rlc_waveform.Waveform.values w in
  if Array.length values = 0 then
    Printf.printf "%-16s  (no samples)\n" (probe_label deck probe)
  else begin
    let lo, hi = Rlc_numerics.Stats.min_max values in
    let final = values.(Array.length values - 1) in
    Printf.printf
      "%-16s  final %12.6g   min %12.6g   max %12.6g   rms %12.6g\n"
      (probe_label deck probe) final lo hi
      (Rlc_waveform.Measure.rms w)
  end

let run_transient deck csv =
  if deck.Rlc_circuit.Parser.tran = None then begin
    prerr_endline "rlcsim: the deck has no .tran card (use --ac for an .ac sweep)";
    exit 1
  end;
  if deck.Rlc_circuit.Parser.probes = [] then begin
    prerr_endline "rlcsim: the deck has no .probe card";
    exit 1
  end;
  let result =
    (* a voltage-source loop or a node with no DC path to ground *)
    match Rlc_circuit.Parser.run deck with
    | r -> r
    | exception Failure msg when msg = "Transient: singular MNA matrix" ->
        Printf.eprintf
          "rlcsim: %s: check for voltage sources in a loop and for nodes \
           with no path to ground\n"
          msg;
        exit 1
  in
  Printf.printf "transient: %d steps\n\n"
    (Rlc_circuit.Transient.steps_taken result);
  List.iter (summarize deck result) deck.Rlc_circuit.Parser.probes;
  match csv with
  | None -> ()
  | Some path ->
      let time = Rlc_circuit.Transient.time result in
      let waves =
        List.map
          (fun p ->
            ( probe_label deck p,
              Rlc_waveform.Waveform.values
                (Rlc_circuit.Transient.get result p) ))
          deck.Rlc_circuit.Parser.probes
      in
      let rows =
        List.init (Array.length time) (fun i ->
            time.(i) :: List.map (fun (_, vs) -> vs.(i)) waves)
      in
      Rlc_report.Csv.write ~path
        ~header:("time" :: List.map fst waves)
        ~rows;
      Printf.printf "\nwrote %s\n" path

let run_ac deck pool csv =
  let open Rlc_circuit in
  let spec =
    match deck.Parser.ac with
    | Some s -> s
    | None ->
        prerr_endline "rlcsim: --ac requested but the deck has no .ac card";
        exit 1
  in
  let asm = Assembly.of_netlist deck.Parser.netlist in
  let inputs = asm.Assembly.inputs in
  if Array.length inputs = 0 then begin
    prerr_endline "rlcsim: --ac needs an independent source; the deck has none";
    exit 1
  end;
  if Array.length inputs > 1 then
    Printf.eprintf
      "rlcsim: %d independent sources; sweeping the first one (%s)\n"
      (Array.length inputs) inputs.(0).Assembly.name;
  let freqs =
    Ac.decade_grid ~points_per_decade:spec.Parser.points_per_decade
      ~fstart:spec.Parser.fstart ~fstop:spec.Parser.fstop
  in
  let node_probes =
    List.filter_map
      (fun p ->
        match p with
        | Transient.Node_v n -> Some (probe_label deck p, n)
        | Transient.Branch_i _ ->
            Printf.eprintf "rlcsim: skipping %s (AC sweep probes voltages)\n"
              (probe_label deck p);
            None)
      deck.Parser.probes
  in
  if node_probes = [] then begin
    prerr_endline "rlcsim: no voltage probes for the AC sweep";
    exit 1
  end;
  Printf.printf "ac: %d points, %g Hz .. %g Hz\n\n" (Array.length freqs)
    spec.Parser.fstart spec.Parser.fstop;
  let sweeps =
    List.map
      (fun (label, node) -> (label, Ac.bode ~pool asm ~node ~freqs))
      node_probes
  in
  List.iter
    (fun (label, pts) ->
      let first = pts.(0) and last = pts.(Array.length pts - 1) in
      Printf.printf
        "%-16s  %12.6g dB at %10.4g Hz   ...   %12.6g dB at %10.4g Hz\n"
        label first.Ac.mag_db first.Ac.freq last.Ac.mag_db last.Ac.freq)
    sweeps;
  match csv with
  | None -> ()
  | Some path ->
      let header =
        "freq"
        :: List.concat_map
             (fun (label, _) ->
               [
                 "mag_db(" ^ label ^ ")";
                 "phase_deg(" ^ label ^ ")";
                 "phase_unwrapped_deg(" ^ label ^ ")";
               ])
             sweeps
      in
      let unwrapped =
        List.map
          (fun (_, pts) -> Ac.unwrap (Array.map (fun p -> p.Ac.phase_deg) pts))
          sweeps
      in
      let rows =
        List.init (Array.length freqs) (fun i ->
            freqs.(i)
            :: List.concat
                 (List.map2
                    (fun (_, pts) unw ->
                      [ pts.(i).Ac.mag_db; pts.(i).Ac.phase_deg; unw.(i) ])
                    sweeps unwrapped))
      in
      Rlc_report.Csv.write ~path ~header ~rows;
      Printf.printf "\nwrote %s\n" path

let run () file ac jobs csv =
  let pool = Rlc_parallel.Pool.create ~domains:jobs () in
  match Rlc_circuit.Parser.parse_file file with
  | exception Rlc_circuit.Parser.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" file line msg;
      exit 1
  | deck ->
      (match deck.Rlc_circuit.Parser.title with
      | Some t -> Printf.printf "* %s\n" t
      | None -> ());
      if ac then run_ac deck pool csv else run_transient deck csv

let cmd =
  Cmd.v
    (Cmd.info "rlcsim" ~version:"1.0.0"
       ~doc:"Transient and AC simulation of SPICE-flavoured RLC netlists.")
    Term.(const run $ instr_term $ file_arg $ ac_arg $ jobs_arg $ csv_arg)

let () = exit (Cmd.eval cmd)
