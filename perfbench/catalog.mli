(** Every workload and metric the benchmark prints, in print order.

    [BENCHMARK.json] at the repository root must list the same workloads and
    the same end-to-end and per-layer metrics (name, unit, direction); the
    benchmark's tests check that. Bounds live only in [BENCHMARK.json]. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

val workloads : string list
val end_to_end : metric list
(** Printed with [--trace 0]. *)

val per_layer : metric list
(** Printed with [--trace 1]. *)

val valid_name : string -> bool
(** 1–64 characters of [A-Za-z0-9_.-], starting with a letter or digit. *)

val valid_unit : string -> bool
(** 1–16 characters of [A-Za-z0-9_/%.-]. *)

val better_name : better -> string
(** ["lower"] / ["higher"], as in [BENCHMARK.json]. *)
