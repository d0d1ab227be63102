(** Circuit netlist builder.

    Nodes are small integers; node 0 is ground.  Elements are added
    imperatively (the natural idiom for netlist construction) and the
    finished netlist is consumed read-only by the DC and transient
    engines.  Elements and the id -> name tables are arrays in
    insertion order; names are found through open-addressed hash
    indexes. *)

type node = int

val ground : node

type element =
  | Resistor of { a : node; b : node; ohms : float }
  | Capacitor of { a : node; b : node; farads : float }
  | Rl_branch of { a : node; b : node; ohms : float; henries : float }
      (** Series R-L branch (one line segment); [henries = 0] degrades
          to a plain resistor.  Branch current flows a -> b. *)
  | Coupled_rl of {
      a1 : node;
      b1 : node;
      a2 : node;
      b2 : node;
      ohms : float;
      henries : float;
      mutual : float;
    }
      (** Two magnetically coupled series R-L branches (a1 -> b1 and
          a2 -> b2) with equal self inductance and mutual [mutual]
          (0 <= mutual < henries) — one segment of a coupled line
          pair. *)
  | Vsource of { a : node; b : node; stim : Stimulus.t }
      (** Ideal voltage source, positive terminal [a]. *)
  | Isource of { a : node; b : node; stim : Stimulus.t }
      (** Current flows a -> b through the source. *)
  | Inverter of { input : node; output : node; dev : Devices.inverter }

type t

val create : unit -> t

val fresh_node : ?name:string -> t -> node
(** Allocate a new node.  Named nodes can be retrieved with
    [find_node]. *)

val node_count : t -> int
(** Including ground. *)

val find_node : t -> string -> node option

val node_name : t -> node -> string option
(** Reverse lookup of a node's registered name: [None] for an unnamed
    node, ground and ids out of range.  Constant time. *)

val add_resistor : ?name:string -> t -> node -> node -> float -> unit
val add_capacitor : ?name:string -> t -> node -> node -> float -> unit
val add_rl_branch :
  ?name:string -> t -> node -> node -> ohms:float -> henries:float -> unit
val add_inductor : ?name:string -> t -> node -> node -> float -> unit
(** Pure inductor: an RL branch with a negligible series resistance
    (1 micro-ohm) for DC solvability. *)

val add_coupled_rl :
  ?name:string ->
  t ->
  a1:node -> b1:node -> a2:node -> b2:node ->
  ohms:float -> henries:float -> mutual:float ->
  unit
(** See {!element.Coupled_rl}.  Current probes address the two branch
    currents as ["<name>#1"] and ["<name>#2"]. *)

val add_vsource : ?name:string -> t -> node -> node -> Stimulus.t -> unit
val add_isource : ?name:string -> t -> node -> node -> Stimulus.t -> unit
val add_inverter :
  ?name:string -> t -> input:node -> output:node -> Devices.inverter -> unit

val elements : t -> element array
(** In insertion order; index is the element id. *)

val find_element : t -> string -> int option
(** Element id by name (for current probes). *)

val element_name : t -> int -> string
(** Name of element [id] (auto-generated when not provided). *)

val structural_hash : t -> string
(** 16 hex digits of a 63-bit hash of the deck's *structure*: element
    kinds and connectivity, with every element value (ohms, farads,
    stimulus waveforms, device parameters) excluded — value-only edits
    hash equal, topology edits hash different (up to 63-bit
    collisions, which {!structural_signature} catches).  Each element
    is hashed from its kind and its nodes' {e names} in order, and the
    per-element hashes are summed: the sum ignores card order but
    keeps how often each element occurs, so two equivalent decks that
    list the same cards in a different order (and therefore number
    their nodes differently) hash equal, as long as their nodes are
    named ({!fresh_node}'s [?name]; the SPICE parser names every node
    after its card token).  Unnamed nodes fall back to their ids,
    which are insertion-order dependent.  Linear in the deck, with no
    sort and no string per element.

    The one structural value: an RL branch with [henries = 0] stamps
    as a plain resistor (no branch-current unknown) and is hashed as
    one.  This is the compiled-deck cache key of the serving layer. *)

val structural_signature : t -> string
(** The exact value-stripped element sequence (insertion order, raw
    node ids).  Equal signatures guarantee the two decks drive
    {!Assembly.of_netlist} through the identical stamp-call sequence —
    same COO patterns, same adjacency, same
    {!Rlc_numerics.Solver.plan}, same sparse symbolic structure — so
    compiled artifacts of one deck are sound to reuse for the other.
    Two decks can hash equal ({!structural_hash}) yet differ here
    (e.g. permuted cards); such aliases must be recompiled, not
    served from a cache. *)

type structural_key = {
  hash : string;  (** {!structural_hash} — finds the deck family *)
  signature : string;  (** {!structural_signature} — rejects aliases *)
}
(** The hash/signature pairing every compiled-artifact reuse decision
    is made on.  {!structural_hash} alone is too coarse (permuted
    decks collide); {!structural_signature} alone is too expensive as
    a table key.  A layer that caches compiled decks (the serving
    layer's {!Rlc_serve.Deck_cache}) keys by [hash] and verifies
    [signature], obtaining the pair through this one type so the two
    halves cannot drift apart. *)

val structural_key : t -> structural_key

val key_reusable : cached:structural_key -> probe:structural_key -> bool
(** True when artifacts compiled for [cached] are sound for [probe]:
    both halves equal.  Equal hashes with different signatures — an
    alias — is exactly the unsafe case this returns [false] for. *)

val validate : t -> unit
(** Checks node indices are in range, element values are physical and
    every non-ground node has a DC path to ground (otherwise the MNA
    matrix is singular).  Raises [Invalid_argument] with a description
    of the first problem found; a node without a DC path is named by
    its registered name (["node c"]), or by its id when it has none
    (["node 3"]). *)
