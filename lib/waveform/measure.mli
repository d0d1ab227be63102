(** Waveform measurements used by the paper's experiments: threshold
    delays, overshoot/undershoot (signal integrity, Section 3.3),
    oscillation period (Figure 11) and peak/rms levels (Figure 12). *)

type direction = Rising | Falling | Either

val crossings : ?direction:direction -> Waveform.t -> level:float -> float list
(** Interpolated times at which the waveform crosses [level], in
    order.  A sample exactly at the level counts with the sign of the
    surrounding segment. *)

val first_crossing :
  ?direction:direction -> Waveform.t -> level:float -> float option

val threshold_delay :
  Waveform.t -> fraction:float -> v_final:float -> float option
(** Delay to the first crossing of [fraction * v_final] (the paper's
    "f x 100% delay"), measured from the waveform start. *)

val overshoot : Waveform.t -> v_final:float -> float
(** max(0, max(w) - v_final): how far the response exceeds its settled
    value.  In volts, not percent. *)

val undershoot_below : Waveform.t -> floor:float -> float
(** max(0, floor - min(w)): excursion below [floor] (e.g. ground). *)

val settling_time :
  Waveform.t -> v_final:float -> band:float -> float option
(** Earliest time after which the waveform stays within
    [band * |v_final|] of [v_final] until the end. *)

val period : ?level:float -> Waveform.t -> float option
(** Oscillation period estimated as the mean spacing of same-direction
    (rising) crossings of [level] (default: midpoint of min/max).
    [None] with fewer than two rising crossings. *)

type edge = Rise | Fall

val full_transitions : Waveform.t -> lo:float -> hi:float -> (float * edge) list
(** Schmitt-trigger edge detection: a [Rise] is registered when the
    waveform crosses above [hi] having previously been below [lo] (and
    symmetrically for [Fall]).  Ringing between the two levels produces
    no events, so only genuine full-swing transitions are counted —
    the right notion of "switching" for the ring-oscillator
    experiments.  Requires [lo < hi]. *)

val schmitt_period : Waveform.t -> lo:float -> hi:float -> float option
(** Mean spacing of consecutive [Rise] events from
    {!full_transitions}; [None] with fewer than two. *)

val peak_abs : Waveform.t -> float
(** Maximum of |w| over the record. *)

val max_deviation_pct : reference:Waveform.t -> Waveform.t -> float
(** Largest [|w(t) - reference(t)|] over the samples of [w], in percent
    of the reference's swing (max - min).  The reference is linearly
    interpolated between its points and held at its ends. *)

val rms : Waveform.t -> float
(** Time-weighted RMS over the record span. *)

val rms_over_period : ?level:float -> Waveform.t -> float option
(** RMS restricted to an integral number of detected periods (at least
    one); falls back to [None] when no period is detectable. *)
