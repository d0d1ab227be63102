(** A SPICE-flavoured netlist parser for the transient engine.

    Supported card types (case-insensitive, [*] starts a comment,
    values take SPICE magnitude suffixes f p n u m k meg g t and an
    optional trailing unit like "pF"):

    {v
    Rname n1 n2 value                    resistor
    Cname n1 n2 value                    capacitor
    Lname n1 n2 value                    inductor
    Bname n1 n2 r=.. l=..                series R-L branch (totals)
    Wname n1 n2 r=.. l=.. c=.. len=.. seg=..
                                         distributed RLC line (expanded
                                         into a ladder; r/l/c per metre)
    Pname a1 b1 a2 b2 r=.. l=.. m=..     coupled R-L branch pair (totals)
    Vname n+ n- DC value                 sources; also
    Vname n+ n- PULSE(v0 v1 td tr tf pw per)
    Vname n+ n- PWL(t1 v1 t2 v2 ...)
    Iname n+ n- DC value                 current source (same waveforms)
    Xname in out INV r_on=.. c_in=.. c_out=.. vdd=.. [vth=..] [ttr=..]
                                         threshold inverter
    .tran dt t_end                       transient analysis request
    .ac dec n fstart fstop               AC sweep, n points per decade
    .probe v(node) i(element) ...        what to record
    .end                                 optional terminator
    v}

    Node names are arbitrary case-insensitive tokens; "0" and "gnd" are
    ground (see {!find_node}).

    Lexical rules.  Lines are the ['\n']-separated pieces of the text,
    numbered from 1 and trimmed of surrounding whitespace; blank lines
    are skipped.  A ['$'] or [';'] ends a line's content.  Tokens are
    separated by spaces, parentheses and commas (a tab inside a line
    is part of a token).  A token holding ['='] is a [key=value]
    parameter, matched by its key in any case; the other tokens are
    positional.  The first line is the title unless it looks like a
    card: it starts with ['*'] or ['.'], or with a card letter and
    has three or more tokens, the last a value or [key=value].

    The parser is one scanner over the text: lines, tokens and values
    are offset ranges into it, and a string is copied out only for a
    name the deck keeps (node, element, probe, title) or an error
    message.  A node name is lowercased only when it holds an
    upper-case letter. *)

exception Parse_error of int * string
(** Line number (1-based) and description. *)

type ac_spec = { points_per_decade : int; fstart : float; fstop : float }
(** Logarithmic sweep request from an [.ac dec] card; feed it to
    {!Ac.decade_grid}. *)

type deck = {
  netlist : Netlist.t;
  tran : (float * float) option;  (** (dt, t_end) from [.tran] *)
  ac : ac_spec option;  (** sweep from [.ac] *)
  probes : Transient.probe list;
  title : string option;  (** first line when it is not a card *)
}

val find_node : Netlist.t -> string -> Netlist.node option
(** Look up a node by its netlist-file name.  The one rule for node
    names: they are case-insensitive ([Netlist.find_node] holds them
    lowercased), and "0" and "gnd" in any case are ground. *)

val node_of_name : deck -> string -> Netlist.node option
(** [find_node] on the deck's netlist: reads the netlist's own name
    table, so it keeps answering after elements are added to
    [deck.netlist]. *)

val name_of_node : deck -> Netlist.node -> string option
(** Reverse lookup through [Netlist.node_name] on the deck's netlist:
    a card's node reports its lowercased name, a W card's internal
    ladder node the name the ladder gave it, and ground ["0"]. *)

val parse_string : string -> deck
val parse_file : string -> deck

val parse_value : string -> float
(** Parse one SPICE number ("4.4k", "100p", "2.5pF", "1meg"): a numeric
    prefix, read as [float_of_string] reads it, times the scale of the
    suffix's first letter ("meg" before "m").  Surrounding whitespace
    is ignored.  Raises [Failure] on malformed input. *)

val run : ?config:Transient.Config.t -> deck -> Transient.result
(** Run the deck's transient analysis with [config] (default
    {!Transient.Config.default}).  Raises [Invalid_argument] when the
    deck has no [.tran] card or no probes. *)
