(* The benchmark's own span recorder, used by the traced layer replay.
   Each span is one call into a library layer, tagged with the job it
   served.  The replay's spans do not nest (each wraps one library
   call), so a span's self time is its duration.  Spans stay in memory
   and are written (as a Chrome trace) only when the run ends. *)

type span = {
  name : string;
  job : int;  (** the request every span of one job shares *)
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let current_job = ref (-1)

(* Spans are recorded only while a job is current. *)
let set_job j = current_job := j

let clear () =
  spans := [];
  current_job := -1

let with_ name f =
  if !current_job < 0 then f ()
  else begin
    let job = !current_job and start = Harness.now () in
    let record () = spans := { name; job; start; stop = Harness.now () } :: !spans in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

let all () = Array.of_list (List.rev !spans)

(* name -> (calls, seconds per job) over jobs [0, jobs). *)
let by_name_and_job spans ~jobs =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      if s.job < jobs then begin
        let calls, times =
          match Hashtbl.find_opt tbl s.name with
          | Some x -> x
          | None ->
              let x = (ref 0, Array.make jobs 0.0) in
              Hashtbl.add tbl s.name x;
              x
        in
        incr calls;
        times.(s.job) <- times.(s.job) +. (s.stop -. s.start)
      end)
    spans;
  tbl

let write_chrome path spans =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"job\": %d}}"
        (if i = 0 then "" else ",")
        s.name (s.start *. 1e6) ((s.stop -. s.start) *. 1e6) s.job)
    spans;
  output_string oc "\n]}\n";
  close_out oc
