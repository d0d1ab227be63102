type query =
  | Q_dc of { node : string }
  | Q_ac of {
      node : string;
      points_per_decade : int;
      fstart : float;
      fstop : float;
    }
  | Q_tran of { node : string; dt : float; t_end : float }
  | Q_delay of { node : string; fraction : float; dt : float; t_end : float }
  | Q_delay_sens of { node : string; fraction : float; params : string list }

type deck_source = Deck_file of string | Deck_inline of string

type job = { id : string; query : query; deck : deck_source }

type parsed =
  | Blank
  | Job of job
  | Malformed of { id : string; message : string }

let is_space c = c = ' ' || c = '\t' || c = '\r'

let tokens s =
  String.split_on_char ' ' (String.map (fun c -> if is_space c then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

(* The offset of the next [\n] or [\\] escape in [s.[i..hi)], or [hi].
   Any other backslash pair is stepped over as written. *)
let rec next_escape s i hi =
  if i + 1 >= hi then hi
  else if String.unsafe_get s i <> '\\' then next_escape s (i + 1) hi
  else
    match String.unsafe_get s (i + 1) with
    | 'n' | '\\' -> i
    | _ -> next_escape s (i + 2) hi

(* [s.[lo..hi)] with [\n] and [\\] decoded, in one pass that blits the
   runs between escapes into a buffer of the undecoded length; the
   result is that buffer, or its decoded prefix when the text held
   escapes. *)
let unescape_range s lo hi =
  let out = Bytes.create (hi - lo) in
  let rec copy i o =
    let e = next_escape s i hi in
    Bytes.blit_string s i out o (e - i);
    let o = o + e - i in
    if e = hi then o
    else begin
      Bytes.set out o (if s.[e + 1] = 'n' then '\n' else '\\');
      copy (e + 2) (o + 1)
    end
  in
  let n = copy lo 0 in
  if n = hi - lo then Bytes.unsafe_to_string out else Bytes.sub_string out 0 n

let escape_deck s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string b "\\n"
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* SPICE-suffixed numbers ("10p", "4.4k", "1meg") as well as plain
   floats, matching the deck syntax the jobs carry. *)
let float_of_token ctx t =
  match Rlc_circuit.Parser.parse_value t with
  | v when Float.is_finite v -> v
  | _ | (exception Failure _) -> failwith (Printf.sprintf "bad %s %S" ctx t)

let int_of_token ctx t =
  match int_of_string_opt t with
  | Some v -> v
  | None -> failwith (Printf.sprintf "bad %s %S" ctx t)

let parse_query = function
  | [ "dc"; node ] -> Q_dc { node }
  | [ "ac"; node; ppd; fstart; fstop ] ->
      let points_per_decade = int_of_token "points/decade" ppd in
      let fstart = float_of_token "fstart" fstart in
      let fstop = float_of_token "fstop" fstop in
      if points_per_decade < 1 then failwith "ac needs >= 1 point per decade";
      if fstart <= 0.0 || fstop < fstart then
        failwith "ac needs 0 < fstart <= fstop";
      Q_ac { node; points_per_decade; fstart; fstop }
  | [ "tran"; node; dt; t_end ] ->
      let dt = float_of_token "dt" dt in
      let t_end = float_of_token "t_end" t_end in
      if dt <= 0.0 || t_end <= 0.0 then failwith "tran needs dt > 0, t_end > 0";
      Q_tran { node; dt; t_end }
  | [ "delay"; node; fraction; dt; t_end ] ->
      let fraction = float_of_token "fraction" fraction in
      let dt = float_of_token "dt" dt in
      let t_end = float_of_token "t_end" t_end in
      if not (fraction > 0.0 && fraction < 1.0) then
        failwith "delay needs 0 < fraction < 1";
      if dt <= 0.0 || t_end <= 0.0 then
        failwith "delay needs dt > 0, t_end > 0";
      Q_delay { node; fraction; dt; t_end }
  | "delay-sens" :: node :: fraction :: params ->
      let fraction = float_of_token "fraction" fraction in
      if not (fraction > 0.0 && fraction < 1.0) then
        failwith "delay-sens needs 0 < fraction < 1";
      if params = [] then
        failwith "delay-sens needs at least one param (name:r|l|c|m)";
      Q_delay_sens { node; fraction; params }
  | kind :: _ -> failwith (Printf.sprintf "unknown query kind %S" kind)
  | [] -> failwith "missing query"

(* The bytes [String.trim] strips. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* The job line is read in place: the id and query come from the head
   before the first '|', and the deck is cut out of the line once, by
   offsets, never tokenised. *)
let parse_job_line line =
  let lo = ref 0 and hi = ref (String.length line) in
  while !lo < !hi && is_blank line.[!lo] do incr lo done;
  while !hi > !lo && is_blank line.[!hi - 1] do decr hi done;
  let lo = !lo and hi = !hi in
  if lo = hi || line.[lo] = '#' then Blank
  else begin
    (* the line's first token, for lines with no usable head *)
    let first () =
      let e = ref lo in
      while !e < hi && not (is_space line.[!e]) do incr e done;
      String.sub line lo (!e - lo)
    in
    let rec bar i =
      if i >= hi then -1 else if line.[i] = '|' then i else bar (i + 1)
    in
    match bar lo with
    | -1 -> Malformed { id = first (); message = "missing '|' deck separator" }
    | bar -> begin
        match tokens (String.sub line lo (bar - lo)) with
        | [] -> Malformed { id = first (); message = "missing job id and query" }
        | id :: query_tokens -> begin
            match parse_query query_tokens with
            | exception Failure m -> Malformed { id; message = m }
            | query ->
                let d = ref (bar + 1) in
                while !d < hi && is_blank line.[!d] do incr d done;
                let d = !d in
                if d = hi then Malformed { id; message = "empty deck" }
                else begin
                  let deck =
                    if line.[d] = '@' then
                      Deck_file (String.sub line (d + 1) (hi - d - 1))
                    else Deck_inline (unescape_range line d hi)
                  in
                  Job { id; query; deck }
                end
          end
      end
  end

type outcome =
  | R_dc of float
  | R_ac of Rlc_circuit.Ac.point array
  | R_tran of { final : float; vmin : float; vmax : float; steps : int }
  | R_delay of float option
  | R_delay_sens of { tau : float; sens : (string * float) array }

type result = { id : string; reply : (outcome, string) Stdlib.result }

let g17 = Printf.sprintf "%.17g"

let one_line msg =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg

let annotate_health line ~note = line ^ " # health: " ^ one_line note

let result_line r =
  match r.reply with
  | Error msg -> Printf.sprintf "err %s %s" r.id (one_line msg)
  | Ok (R_dc v) -> Printf.sprintf "ok %s dc v=%s" r.id (g17 v)
  | Ok (R_ac points) ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "ok %s ac n=%d" r.id (Array.length points));
      Array.iter
        (fun p ->
          Buffer.add_char b ' ';
          Buffer.add_string b (g17 p.Rlc_circuit.Ac.freq);
          Buffer.add_char b ':';
          Buffer.add_string b (g17 p.Rlc_circuit.Ac.mag_db);
          Buffer.add_char b ':';
          Buffer.add_string b (g17 p.Rlc_circuit.Ac.phase_deg))
        points;
      Buffer.contents b
  | Ok (R_tran { final; vmin; vmax; steps }) ->
      Printf.sprintf "ok %s tran final=%s min=%s max=%s steps=%d" r.id
        (g17 final) (g17 vmin) (g17 vmax) steps
  | Ok (R_delay (Some t)) -> Printf.sprintf "ok %s delay t=%s" r.id (g17 t)
  | Ok (R_delay None) -> Printf.sprintf "ok %s delay t=none" r.id
  | Ok (R_delay_sens { tau; sens }) ->
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "ok %s delay-sens tau=%s" r.id (g17 tau));
      Array.iter
        (fun (name, v) ->
          Buffer.add_char b ' ';
          Buffer.add_string b name;
          Buffer.add_char b '=';
          Buffer.add_string b (g17 v))
        sens;
      Buffer.contents b
