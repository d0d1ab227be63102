(** The JSON format of the observability tooling, both ways: a minimal
    reader (journal JSONL lines, BENCH_*.json snapshots) and the one
    printer behind every JSON this repository emits (metric snapshots,
    journal lines, Chrome traces, BENCH files).  Numbers are doubles;
    out-of-range literals such as the printer's [1e999] parse to
    [infinity].  The reader is not a general-purpose validator — it
    accepts exactly the JSON this repository emits, plus the obvious
    superset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)

val to_float : t -> float option
(** Numbers, plus booleans as 0/1. *)

val to_string : t -> string option
(** The string inside a [Str]; [None] otherwise. *)

(** {1 Printing} *)

val encode : t -> string
(** Compact JSON, no whitespace, fields in list order.
    [parse (encode v) = Ok v] for every [v] without NaN: numbers go
    through {!number}, strings through {!add_quoted}. *)

val number : float -> string
(** A number literal that parses back to the same bits: integers below
    1e15 plainly, other finite values with 17 significant digits,
    [nan] as [null] and the infinities as [1e999] / [-1e999]. *)

val add_quoted : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string: quote, backslash and
    control bytes escaped, other bytes (UTF-8 included) verbatim. *)
