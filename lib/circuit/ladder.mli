(** Lumped-ladder discretisation of a distributed RLC line.

    A line with per-unit-length (r, l, c) and length [length] becomes
    [segments] sections, each a series R-L branch followed by a shunt
    capacitor.  The first shunt capacitor is split between the input
    and the first joint (CLC "pi-ish" arrangement) so both ends see
    symmetric loading; with 10-20 segments the ladder's 50% delay
    converges to the distributed answer (the test suite quantifies
    this). *)

type spec = {
  r : float;  (** ohm/m *)
  l : float;  (** H/m *)
  c : float;  (** F/m *)
  length : float;  (** m *)
  segments : int;
}

val make :
  ?name_prefix:string ->
  Netlist.t ->
  spec ->
  from_node:Netlist.node ->
  to_node:Netlist.node ->
  unit
(** Adds the ladder between two existing nodes, creating the internal
    joints.  The series branch of segment [i] (0-based) is named
    ["<prefix>_seg<i>"], so currents along the wire can be probed:
    segment 0 carries the near-end (driver) current.
    The joint after segment [i] is the node ["<prefix>_n<i+1>"] in
    lowercase, the deck's node rule, so a deck's cards and probes can
    name it in any case; a joint the netlist already has by that name
    is joined, not duplicated.  Element names keep the prefix as
    written.  [name_prefix] defaults to ["line"]; it must be unique
    per netlist.
    Raises [Invalid_argument] on non-positive sizes or
    [segments < 1]. *)

val input_current_probe : ?name_prefix:string -> unit -> Transient.probe
(** The probe for the current entering the line (segment 0). *)

val driven_line :
  ?name_prefix:string ->
  ?vdd:float ->
  ?t_rise:float ->
  spec ->
  Netlist.t * Netlist.node * Netlist.node
(** A fresh netlist holding one step-driven line: an ideal source
    (DC [vdd], or a [t_rise] ramp when positive) into a [make] ladder.
    Returns [(netlist, source_node, far_node)] — the standard fixture
    for the ladder-scaling benchmarks and backend cross-checks.  The
    source is named ["<prefix>_drv"] so its current can be probed. *)

type coupled_spec = {
  r : float;  (** ohm/m, each line *)
  l_self : float;  (** H/m *)
  l_mutual : float;  (** H/m, 0 <= l_mutual < l_self *)
  c_ground : float;  (** F/m, each line to ground *)
  c_coupling : float;  (** F/m, line to line *)
  length : float;  (** m *)
  segments : int;
}

val make_coupled :
  ?name_prefix:string ->
  Netlist.t ->
  coupled_spec ->
  from1:Netlist.node ->
  to1:Netlist.node ->
  from2:Netlist.node ->
  to2:Netlist.node ->
  unit
(** Two parallel ladders whose series branches are magnetically coupled
    ({!Netlist.element.Coupled_rl}) and whose joints are connected by
    the coupling capacitors — one segment of the symmetric coupled pair
    of {!Rlc_core.Coupled} (which this discretisation is validated
    against in the test suite).  Segment [i]'s branches are probed as
    ["<prefix>_seg<i>#1"] and ["...#2"]. *)
