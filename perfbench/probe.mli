(** Outside-in measurement around calls into the RATS layers.

    A {!t} records one span per wrapped call: its name, start and stop
    (monotonic host seconds), the enclosing span, a request id shared by
    every span of one configuration or job, and the deltas of the
    {!Rats_obs.Metrics} counters and [Gc.quick_stat] fields across the call.
    Spans stay in memory for {!aggregate}; each is also recorded on the
    recorder's own {!Rats_obs.Trace} tracer (never installed globally), which
    {!write} exports once, at exit. When the recorder is disabled {!span} is
    a plain call. *)

val now : unit -> float
(** Monotonic host seconds. *)

(** {2 Registry counters} *)

val counter_names : string array
(** Per-layer metric names of the counters read around each call, e.g.
    ["sim.events"], ["core.map_packed"] (summed over the three strategies). *)

val counter_index : string -> int
(** Position of a name in {!counter_names}. Raises [Invalid_argument] for an
    unknown name. *)

val read_counters : unit -> int array
(** Current registry values, indexed like {!counter_names}. *)

(** {2 GC} *)

type gc = {
  minor_words : float;  (** Words allocated (minor heap, incl. promoted). *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

val gc_now : unit -> gc
val gc_diff : gc -> gc -> gc
(** [gc_diff before after]. *)

val gc_zero : gc
val gc_add : gc -> gc -> gc

val peak_heap_mb : unit -> float
(** Largest major-heap size the process has reached, in MiB. *)

(** {2 Spans} *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  req : int;  (** Request id; inherited from the parent unless given. *)
  name : string;
  start : float;
  stop : float;
  counts : int array;  (** Counter deltas, indexed like {!counter_names}. *)
  gc : gc;
}

type t

val create : unit -> t
(** A disabled recorder. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val span : t -> ?req:int -> string -> (unit -> 'a) -> 'a
(** Runs the thunk, recording a span when enabled (also when it raises). *)

val spans : t -> span list
(** In start order. *)

val n_spans : t -> int

type totals = {
  total_s : float;
  self_s : float;  (** Total minus the time covered by direct children. *)
  counts : int array;
}

val aggregate : span list -> string -> totals option
(** Per-name sums over the given spans. *)

val write : t -> string -> unit
(** The recorded spans as a Chrome trace-event file
    ({!Rats_obs.Trace.write_chrome}); each event's args carry its span id,
    parent, request id, minor words and non-zero counter deltas. *)
