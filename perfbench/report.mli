(** What a run prints: human-readable lines, then one JSON result line. *)

val lines : trace:bool -> Workloads.outcome -> string list
(** Notes (prefixed ["# "]), the failed ratio, then one [name value unit]
    row per metric of the mode's catalogue. *)

val result : trace:bool -> Workloads.outcome -> Rats_obs.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}]
    with the end-to-end metrics ([trace = false]) or the per-layer ones.
    [correct] holds when no operation failed and every value is finite;
    a non-finite value is printed as 0. *)
