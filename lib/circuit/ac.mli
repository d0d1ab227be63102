(** AC small-signal analysis over the sparse stamp IR
    ({!Assembly.t}): solve [(G + jwC) x = B u] with a unit-amplitude
    source at each frequency of a sweep and report Bode points.

    Inductor branch currents are explicit unknowns of the IR — the
    transient engine's companion-model trick has no meaning at a
    single complex frequency.  Inverters enter linearised at their
    output stage: gate and drain capacitances stamp into [C], the
    on-resistance into [G], and the switching source contributes
    nothing (small-signal analysis of a held logic state).

    The grid convention follows the SPICE [.ac dec] card: a fixed
    number of points per decade on a logarithmic grid, both endpoints
    included.  Points are records of frequency, magnitude in dB and
    phase in degrees — the same shape as [Rlc_core.Frequency.point], so
    sweeps of a discretised line overlay directly on the analytic
    two-pole response of the core library. *)

open Rlc_numerics

type point = { freq : float; mag_db : float; phase_deg : float }

val decade_grid :
  points_per_decade:int -> fstart:float -> fstop:float -> float array
(** Logarithmic grid from [fstart] to [fstop] inclusive.  Raises
    [Invalid_argument] unless [0 < fstart <= fstop] and
    [points_per_decade >= 1]. *)

val s_of_freq : float -> Cx.t
(** [s = j 2 pi f], the Laplace point of a real frequency. *)

val point_of : freq:float -> Cx.t -> point
(** Magnitude (dB) and unwrapped-free phase (degrees, atan2 branch) of
    one complex response value. *)

val unwrap : float array -> float array
(** Phase unwrapping: given wrapped phases in degrees (each in
    (-180, 180], as {!point_of} produces along a sweep), remove the
    360-degree jumps so the returned curve is continuous — whenever a
    step between consecutive samples exceeds 180 degrees in magnitude
    the rest of the curve is shifted by the compensating multiple of
    360.  The first sample is kept as-is; a distributed RLC line's
    phase then descends monotonically past -180 instead of sawing.
    Returns a fresh array ([[||]] for empty input). *)

val bode :
  ?pool:Rlc_parallel.Pool.t ->
  Assembly.t ->
  node:Netlist.node ->
  freqs:float array ->
  point array
(** One Bode point per frequency: the voltage at [node] driven by the
    deck's first source at unit amplitude.  The whole sweep shares one
    {!Assembly.cengine} — on the sparse backend the symbolic analysis
    happens once and every point refactors it — and [pool] fans the
    points out, slotted back in [freqs] order (bit-identical for any
    domain count).  Raises [Invalid_argument] on ground, an
    out-of-range node or a source-free deck (see {!Assembly.probe}). *)
