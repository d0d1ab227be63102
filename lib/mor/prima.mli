(** PRIMA-style passive model-order reduction of a netlist's sparse
    stamp IR ({!Rlc_circuit.Assembly.t}).

    From the full system [(G + sC) x = b u], [y = l^T x] — [b] the
    deck's first source column, [l] the unit selector of one node
    voltage — the reducer
    builds an orthonormal basis [V] of the order-[q] block Krylov
    subspace of [(G^-1 C, G^-1 b)] and projects by congruence:

    {v G_r = V^T G V,  C_r = V^T C V,  b_r = V^T b,  l_r = V^T l v}

    The reduced q-state transfer function [H_r] matches the first [q]
    moments of the full one (one-sided projection: q moments, not the
    2q of an AWE Pade approximant — but without AWE's ill-conditioned
    moment cancellation, which is the point of the method).

    The large sparse solves with [G] reuse the transient engine's
    strategy: reverse Cuthill-McKee ordering ({!Rlc_numerics.Rcm}) and
    the banded LU kernel whenever the permuted bandwidth pays,
    so reducing a many-hundred-segment line costs a handful of banded
    solves rather than a dense factorisation; the [C] products of the
    Krylov recurrence and both congruence projections are sparse
    mat-vecs over the IR ({!Rlc_circuit.Assembly.Coo.mul_vec}), so no
    dense n x n matrix is ever formed.

    The reduced model is post-processed into poles and residues (via
    {!Rlc_numerics.Eig} on the projected pencil plus inverse
    iteration), giving closed-form frequency and unit-step responses
    that evaluate in O(q) per point. *)

open Rlc_numerics
open Rlc_circuit

type model = {
  order : int;  (** states actually kept (deflation can shrink [q]) *)
  g_r : Matrix.t;
  c_r : Matrix.t;
  b_r : float array;
  l_r : float array;
  poles : Cx.t array;  (** finite poles of the reduced pencil *)
  residues : Cx.t array;  (** residue of [H_r] at each pole *)
  step_weights : Cx.t array;
      (** [residues.(i) / poles.(i)], each pole's weight in the step
          response *)
  dc : float;  (** [H_r(0)] = exact DC gain of the full model *)
  stable : bool;  (** all poles strictly in the left half-plane *)
}

val reduce : order:int -> Assembly.t -> node:Netlist.node -> model
(** [reduce ~order asm ~node] projects the system onto the
    order-[order] Krylov subspace of the deck's first source, observed
    at [node]'s voltage.  Raises [Invalid_argument] on [order < 1], on
    ground, an out-of-range node or a source-free deck (see
    {!Rlc_circuit.Assembly.probe}), and [Failure] when [G] is singular
    (no DC solution). *)

val eval : model -> Cx.t -> Cx.t
(** [eval m s] is [H_r(s) = l_r^T (G_r + s C_r)^-1 b_r]; one complex
    [order x order] factorisation. *)

val step_eval : model -> float -> float
(** Unit-step response of the reduced model at time [t >= 0] from the
    pole/residue form:
    [y(t) = H_r(0) + sum_i Re((rho_i / p_i) exp(p_i t))].  O(order)
    per sample — the speed side of the accuracy/speed trade the bench
    measures against the full transient engine. *)

val bode : model -> freqs:float array -> Ac.point array
(** Bode points of the reduced model on a frequency grid (same record
    as a full {!Ac.bode} sweep, for overlay). *)
