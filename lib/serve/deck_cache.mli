(** Bounded LRU cache of compiled decks, keyed by
    {!Rlc_circuit.Netlist.structural_hash}.

    An entry holds everything about a deck that depends only on its
    {e structure} — the {!Rlc_numerics.Solver.plan} of the MNA
    assembly, the sparse symbolic analyses of the DC factorisation
    (which delay-sens what-if workspaces replay too) and the AC sweep
    engine, and the transient companion structure (plan and symbolic)
    — so a value-only variant of a cached deck skips validation,
    ordering and symbolic analysis and goes straight to numeric
    refactor.

    The serving layer builds the MNA plan when it first stamps a
    family, and the DC and AC symbolics in its prepare phase the first
    time a family needs them.  A job that ends with an artifact other
    than the one it was given — the first transient run of a family,
    with its companion structure, or any repivot fallback — hands it
    back, and the coordinator installs it between batches.

    Because the order-independent hash is coarser than what artifact
    reuse requires, each entry also records the deck's exact
    {!Rlc_circuit.Netlist.structural_signature}; a probe whose hash
    matches but whose signature differs is an {e alias} (e.g. the same
    cards permuted, numbering the nodes differently) and is reported
    as such, never served stale artifacts.

    Not domain-safe: the serving layer does all cache operations on
    the coordinating domain, between parallel batches; workers only
    read the immutable artifacts handed to them. *)

open Rlc_numerics

type entry = {
  signature : string;
  asm_plan : Solver.plan;  (** the {!Rlc_circuit.Assembly} plan *)
  mutable dc_sym : Solver.symbolic option;
  mutable ac_sym : Solver.symbolic option;
  mutable tran_plan : Rlc_circuit.Transient.structure option;
      (** the transient companion structure — a different system
          than [asm_plan]'s (no inductor branch rows, symmetric vsource
          rows), see {!Rlc_circuit.Transient.structure}; handed back
          by the family's first transient run *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 64.  Capacity 0 disables caching (every lookup
    misses, inserts are dropped); raises [Invalid_argument] below 0. *)

type lookup =
  | Hit of entry
  | Alias  (** hash present, signature different: recompile *)
  | Miss

val find_key : t -> Rlc_circuit.Netlist.structural_key -> lookup
(** Looks a deck up by its {!Rlc_circuit.Netlist.structural_key}; the
    alias decision goes through the one shared
    {!Rlc_circuit.Netlist.key_reusable} predicate, so every user of
    the key agrees on what counts as "the same deck".  Counts the
    outcome ([serve.cache.hit] / [.alias] / [.miss]) and refreshes the
    entry's LRU position on a hit. *)

val insert_key : t -> Rlc_circuit.Netlist.structural_key -> entry -> unit
(** Inserts (or replaces — the alias path refreshing a poisoned
    family) under the key's hash and evicts the least-recently-used
    entry beyond capacity, counting [serve.cache.evict].  Raises
    [Invalid_argument] when [entry.signature] disagrees with the key's
    signature. *)

type stats = {
  hits : int;
  misses : int;
  aliases : int;
  evictions : int;
  entries : int;
}

val stats : t -> stats
(** Plain-int mirror of the counters, independent of whether
    {!Rlc_instr.Metrics} recording is enabled. *)
