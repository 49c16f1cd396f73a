(** Mutable binary min-heap priority queue.

    The discrete-event simulation engine and the list schedulers both need a
    cheap "extract the earliest event / highest-priority task" operation.
    Priorities are [float]s; ties are broken by insertion order (FIFO), which
    keeps the simulator deterministic when several events share a date. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]. O(log n). *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element (FIFO among equal
    priorities). O(log n). *)

val peek : 'a t -> (float * 'a) option
(** Returns the minimum without removing it. O(1). *)

val min_prio : 'a t -> float
(** The minimum priority, or [infinity] when the queue is empty. O(1), and
    unlike {!peek} it allocates nothing. *)

val clear : 'a t -> unit
