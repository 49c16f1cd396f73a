(** Order statistics for latency samples.

    Percentiles use the nearest-rank definition, so every reported value is
    a sample that was actually measured. A tail percentile is only reported
    when at least {!min_beyond} samples lie beyond it; below that the value
    is one or two outliers, not a percentile. *)

val median : float array -> float
(** Mean of the two middle samples for even counts. Raises
    [Invalid_argument] on an empty array. *)

val mean : float array -> float

val nearest : p:float -> float array -> float
(** Nearest-rank [p]-quantile, [p ∈ (0, 1\]]. Raises [Invalid_argument] on
    an empty array. *)

val min_beyond : int
(** 10. *)

val beyond : p:float -> int -> int
(** Samples strictly above the nearest-rank [p]-quantile of [n] samples. *)

val tail : p:float -> float array -> float option
(** [Some (nearest ~p s)] when [beyond ~p (Array.length s) >= min_beyond],
    else [None]. *)
