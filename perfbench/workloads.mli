(** The benchmark's three workloads, driven through the layers' public
    functions.

    - [sweep_grillon] / [sweep_grelon]: the Figure 2 pipeline (HCPA
      allocation, baseline / delta / time-cost mapping, three replays) over
      every fourth configuration of the smoke suite (the committed Figure 2
      rows, sample 0), in an order drawn from the seed.
    - [service_mixed]: the online engine fed the [mixed] profile's
      pre-compiled arrival trace (submit all, then drain), one planning
      worker, the workload studies' admission policy, and a timed planner
      hook.

    A run sets up five times, then repeats passes — the whole slice
    or the whole trace — while the next one is expected to end within
    [seconds], setting up twice more before each; [setup_s] is the median of
    all set-ups. Every pass is checked; per-layer values come from traced
    passes, which alternate with untraced ones. *)

type scale = {
  configs : int option;  (** Truncates the slice (tests). *)
  jobs : int;  (** Jobs in the service trace. *)
}

val full : scale
(** The whole slice (38 smoke configurations) and 2000 jobs. *)

type outcome = {
  attempted : int;  (** Configurations or submitted jobs, over all passes. *)
  failed : int;  (** Operations that raised or failed a check. *)
  end_to_end : (string * float) list;  (** {!Catalog.end_to_end} order. *)
  per_layer : (string * float) list;
      (** {!Catalog.per_layer} order; empty unless traced. *)
  notes : string list;  (** Human-readable context lines. *)
}

val policy : Rats_server.Admission.policy
(** The service workload's admission policy. *)

val service_config :
  Probe.t -> Rats_platform.Cluster.t -> Rats_server.Engine.config
(** The service workload's engine configuration: {!policy}, one planning
    worker, and the timed planner hook: [Api.plan] while the probe is
    disabled, its composition with a span per step while it is enabled. *)

val run :
  ?reference_csv:string ->
  ?scale:scale ->
  workload:string ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  unit ->
  Probe.t * outcome
(** [reference_csv] (default ["bench_results/naive_grillon.csv"]) holds the
    rows [sweep_grillon] must reproduce. Raises [Invalid_argument]
    for an unknown workload. *)
