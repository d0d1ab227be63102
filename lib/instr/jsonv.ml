(* The JSON format of [rlc_instr], both ways: a small recursive-descent
   reader -- just enough for rlcstat to load journal JSONL lines and
   BENCH_*.json snapshots without pulling a dependency into the
   toolchain -- and the one printer every emitter here (metric
   snapshots, journal lines, Chrome traces, the bench's BENCH files)
   writes through.  Numbers are floats; out-of-range literals like the
   1e999 the printer uses for infinity parse to [infinity], which is
   exactly the round-trip intent. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected %C at offset %d, found %C" c st.pos d
  | None -> fail "expected %C at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "bad literal at offset %d" st.pos

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail "unterminated string"
    else begin
      let c = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (if st.pos >= String.length st.s then fail "unterminated escape"
           else begin
             let e = st.s.[st.pos] in
             st.pos <- st.pos + 1;
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
                 if st.pos + 4 > String.length st.s then
                   fail "truncated \\u escape";
                 let hex = String.sub st.s st.pos 4 in
                 st.pos <- st.pos + 4;
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with Failure _ -> fail "bad \\u escape %S" hex
                 in
                 (* keep it simple: BMP code points as UTF-8 *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char buf
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
             | e -> fail "bad escape \\%C" e
           end);
          go ()
      | c -> Buffer.add_char buf c; go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail "expected a number at offset %d" start;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> fail "bad number %S at offset %d" text start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((key, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        Obj (members [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        List (elements [])
      end
  | Some '"' ->
      st.pos <- st.pos + 1;
      Str (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error m -> Error m

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function
  | Num v -> Some v
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | Str _ | List _ | Obj _ -> None

let to_string = function Str s -> Some s | _ -> None

(* ---------------- printer ---------------- *)

(* Non-finite values must never corrupt a JSON document: NaN becomes
   null and the infinities overflow to ±inf when parsed back.  Finite
   values print exactly (integers plainly, the rest with %.17g), so a
   parse round-trips every bit. *)
let number v =
  if Float.is_nan v then "null"
  else if v = infinity then "1e999"
  else if v = neg_infinity then "-1e999"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number v)
  | Str s -> add_quoted buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_quoted buf k;
          Buffer.add_char buf ':';
          add buf v)
        kvs;
      Buffer.add_char buf '}'

let encode v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
