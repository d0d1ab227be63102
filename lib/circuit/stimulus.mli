(** Time-dependent source values for independent voltage / current
    sources (a small SPICE-like stimulus language). *)

type t =
  | Dc of float
  | Step of { v0 : float; v1 : float; t_delay : float; t_rise : float }
      (** [v0] until [t_delay], linear ramp to [v1] over [t_rise]. *)
  | Pulse of {
      v0 : float;
      v1 : float;
      t_delay : float;
      t_rise : float;
      t_high : float;
      t_fall : float;
      period : float;
    }  (** Repeating trapezoidal pulse, SPICE PULSE semantics. *)
  | Pwl of (float * float) list
      (** Piecewise-linear (time, value) corners; clamped outside. *)

val eval : t -> float -> float
(** Source value at time [t]. *)

val eval_into : t -> float array -> int -> unit
(** [eval_into s a i] replaces the time [a.(i)] with [eval s a.(i)].
    The time and the value stay unboxed, so a DC, step or pulse source
    is evaluated without allocating (a PWL source still allocates). *)

val square_wave : vdd:float -> period:float -> ?t_rise:float -> unit -> t
(** 50%-duty pulse between 0 and [vdd]; [t_rise] defaults to
    [period / 100]. *)

val validate : t -> unit
(** Raises [Invalid_argument] on malformed descriptions (non-positive
    rise times or periods, negative [t_delay] on [Step]/[Pulse], a PWL
    first corner before t = 0, non-increasing PWL corners, pulse that
    does not fit its period). *)
