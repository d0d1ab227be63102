(** Explicit MNA descriptor of a netlist: the matrix quadruple behind

    {v (G + sC) x = B u,   y = L^T x v}

    The transient engine never forms these matrices — it stamps
    companion models straight into a factorisation.  The AC engine and
    the PRIMA reducer need the frequency-domain picture instead, so
    this module exports it once per netlist: [G] collects conductances
    and incidence rows, [C] collects capacitances and inductances, [B]
    maps the independent sources onto the unknowns and an output
    selector [l] (built by {!output_of_node}) reads a node voltage out
    of the solution.

    Unknown ordering: node voltages first (node [k] at index [k - 1],
    ground eliminated), then one branch current per inductive element
    ({!Netlist.element.Rl_branch} with a nonzero inductance contributes
    one, {!Netlist.element.Coupled_rl} two), then one current per
    voltage source.  The inductor currents are explicit unknowns — the
    companion-model trick of the transient engine has no meaning at a
    single complex frequency — which is why the dimensions here exceed
    the transient engine's [nodes - 1 + vsources].

    Inverters are linearised at their output stage: the gate and drain
    capacitances stamp into [C] and the on-resistance into [G], while
    the switching source itself contributes nothing (small-signal
    analysis of a held logic state).

    Since the stamp/assembly refactor the dense matrices are
    materialised from the shared sparse IR ({!Assembly.t}, kept in the
    [asm] field): PRIMA's congruence projection still wants dense
    [G]/[C]/[B], while the solves themselves ({!solve_s}, {!dc_gain},
    {!moments}) go through the IR's shared
    {!Rlc_numerics.Solver.plan}. *)

open Rlc_numerics

type source_kind = Assembly.source_kind = Voltage | Current

type input = Assembly.input = {
  name : string;  (** netlist element name *)
  kind : source_kind;
  stim : Stimulus.t;  (** the deck's waveform, for DC levels *)
}

type t = private {
  size : int;  (** unknown count (rows of G, C, B) *)
  n_nodes : int;  (** netlist nodes including ground *)
  n_currents : int;  (** inductor branch-current unknowns *)
  g : Matrix.t;
  c : Matrix.t;
  b : Matrix.t;  (** [size] x number of sources *)
  inputs : input array;  (** column order of [b] *)
  asm : Assembly.t;  (** the sparse stamp IR the matrices came from *)
}

val of_netlist : Netlist.t -> t
(** Validates the netlist (see {!Netlist.validate}) and stamps the
    descriptor.  Raises [Invalid_argument] on an empty or non-physical
    netlist. *)

val unknown_of_node : t -> Netlist.node -> int
(** Index of a node voltage among the unknowns.  Raises
    [Invalid_argument] on ground or an out-of-range node. *)

val output_of_node : t -> Netlist.node -> float array
(** Selector vector [l] with a single 1 at the node's unknown:
    [y = l^T x] is that node's voltage. *)

val input_index : t -> string -> int option
(** Column of [b] belonging to the named source element. *)

val solve_s : t -> input:int -> s:Cx.t -> Cx.t array
(** Full phasor solution [(G + sC)^-1 B e_input] at one complex
    frequency with a unit source, through
    {!Assembly.solve_complex} — complex banded LU in RCM order when
    the structure is narrow (O(n·b^2) per point), dense complex LU
    otherwise.  Raises {!Rlc_numerics.Solver.Singular} at a
    frequency where the matrix pencil is singular and
    [Invalid_argument] on a bad input index. *)

val transfer : t -> input:int -> output:float array -> Cx.t -> Cx.t
(** [transfer m ~input ~output s] is [l^T (G + sC)^-1 B e_input] — the
    transfer function from a unit-amplitude source to an output
    selector, evaluated at [s].  One complex factorisation per call;
    for sweeps over many outputs share a {!solve_s} solution
    instead. *)

val dc_gain : t -> input:int -> output:float array -> float
(** [transfer] at [s = 0], computed with the real factorisation of the
    shared plan ({!Assembly.factor_g}). *)

val moments : t -> input:int -> output:float array -> order:int -> float array
(** First [order + 1] Taylor coefficients of the transfer function
    about [s = 0]: [m_k = l^T (-G^-1 C)^k G^-1 B e_input], so
    [H(s) = m_0 + m_1 s + m_2 s^2 + ...].  This is the moment sequence
    AWE and PRIMA match; cross-checked against
    [Rlc_tree.Moments.voltage_moments] in the test suite. *)
