(** Ground-truth schedule evaluation by discrete-event simulation.

    Replays a schedule in a {!Rats_sim.Engine}: tasks execute on their
    assigned processor sets, and every redistribution becomes the
    point-to-point flows of its {!Rats_redist.Redistribution.plan}, released
    when the producing task finishes and contending for NIC and uplink
    bandwidth under Max-Min fairness. The replay is work-conserving, like
    the mixed-parallel runtimes the paper targets (TGrid): a task starts as
    soon as {e all} its input redistributions have arrived and {e all} its
    assigned processors are free (acquired atomically — no partial holds, no
    deadlock); a task whose data is late never blocks a later-ready task
    assigned to the same processors. Each processor offers itself to its
    assigned tasks in the mapper's estimated order.

    This is where the effects the mapper's analytic estimates ignore —
    network contention between concurrent redistributions — show up, exactly
    as in the paper's SimGrid experiments (§IV).

    This is the only replay state machine. {!run} evaluates one schedule on
    a private engine; {!start} releases a schedule on a possibly shared
    engine onto a granted processor subset, which is how the online service
    ([Rats_server.Engine]) makes concurrent jobs' redistributions contend. *)

type span = {
  src_task : int;
  dst_task : int;
  span_start : float;  (** Producing task's finish date. *)
  span_finish : float;  (** Arrival of the last byte. *)
  span_bytes : float;  (** Remote bytes of this redistribution. *)
}
(** One paid (partially remote) redistribution, as observed in simulation. *)

type result = {
  makespan : float;
      (** Completion time of the last task, measured from the release
          date. *)
  starts : float array;  (** Per-task simulated start dates (absolute). *)
  finishes : float array;
  remote_bytes : float;  (** Bytes that crossed the network. *)
  local_bytes : float;  (** Bytes kept on-processor by redistributions. *)
  redistributions : int;  (** Data-carrying edges whose plan had remote flows. *)
  avoided : int;  (** Data-carrying edges fully served locally. *)
  spans : span list;  (** Paid redistributions in chronological order. *)
}

val start :
  Rats_sim.Engine.t ->
  ?grant:Rats_util.Procset.t ->
  ?work_conserving:bool ->
  ?optimize_placement:bool ->
  ?on_task_finish:(int -> unit) ->
  ?on_redistribution:(span -> unit) ->
  on_complete:(result -> unit) ->
  Schedule.t ->
  unit
(** Releases the schedule on the engine at its current date
    ({!Rats_sim.Engine.now}); the caller drives the engine. Schedule-local
    processor [q] runs on engine node [Procset.nth grant q]. [grant]
    defaults to the identity and must have exactly the schedule's processor
    count (raises [Invalid_argument] otherwise).

    The first tasks start through an event at the release date, so
    schedules released at the same instant start in release order.
    [on_task_finish task] runs first in each task's finish event.
    [on_redistribution] fires when a paid redistribution's last byte
    arrives. [on_complete] fires in the finish event of the last task; its
    [makespan] is measured from the release date, while [starts],
    [finishes] and the spans carry absolute dates. The flags are as in
    {!run}. *)

val run :
  ?work_conserving:bool -> ?optimize_placement:bool -> Schedule.t -> result
(** Both flags default to true. [work_conserving = false] makes each
    processor serve its assigned tasks strictly in the mapper's order — a
    late input then blocks everything queued behind it (the replay
    discipline ablation). [optimize_placement = false] makes redistribution
    plans use the natural ascending receiver placement instead of the
    self-communication-maximizing one (the placement ablation).

    [run] is {!start} on a fresh engine over the schedule's own cluster
    with the identity grant, driven until the event queue is empty; the
    makespan also covers any event after the last task finish. Fails if a
    task never finishes. *)
