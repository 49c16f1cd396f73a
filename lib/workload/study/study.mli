(** The study runner: one compiled trace, several scheduler arms, one
    comparison table.

    Every arm replays the {e same} arrival trace against a fresh online
    {!Rats_server.Engine} whose [planner] hook pins all jobs to the arm's
    scheduler, so the arms differ in nothing but planning: identical
    arrivals, identical admission policy, identical platform. Reports are
    tallied per tenant from the engine's event log in profile tenant
    order, so a study is deterministic end to end — same profile, same
    seed, same policy ⇒ byte-identical CSV. *)

module Profile := Rats_workload.Profile
module Trace := Rats_workload.Trace
module Report := Rats_workload.Report

type arm =
  | Delta  (** RATS delta mapping (naive parameters). *)
  | Hcpa  (** HCPA allocation + baseline greedy mapping. *)
  | Timecost  (** RATS time-cost mapping (naive parameters). *)
  | Packing  (** Packing-constrained greedy baseline ({!Packing}). *)

val arm_name : arm -> string
(** ["delta"], ["hcpa"], ["time-cost"], ["packing"]. *)

val arm_of_string : string -> (arm, string) result

val default_arms : arm list
(** [\[Delta; Hcpa; Packing\]] — the ISSUE's three-way comparison. *)

val all_arms : arm list

val planner :
  arm ->
  (cluster:Rats_platform.Cluster.t ->
   Rats_server.Api.request ->
   Rats_core.Schedule.t)
  option
(** The engine [planner] override implementing the arm. *)

val run_arm :
  ?policy:Rats_server.Admission.policy ->
  ?jobs:int ->
  ?fault:Rats_runtime.Fault.t ->
  ?on_event:(Rats_server.Api.stamped -> unit) ->
  cluster:Rats_platform.Cluster.t ->
  profile:Profile.t ->
  trace:Trace.t ->
  arm ->
  Report.t
(** Drives [trace] through a fresh engine under the arm's planner and
    tallies the event log. [policy] defaults to
    {!Rats_server.Admission.default}; [jobs] is the engine's
    schedule-computation worker count (pool default when omitted — never
    affects results); [fault] arms the engine's injection sites
    ({!Rats_server.Engine.config}); [on_event] sees every event as it is
    emitted ([ratsd --selftest] keeps the log for its re-run check).
    Bumps [rats_workload_arm_runs_total]. *)

val run :
  ?policy:Rats_server.Admission.policy ->
  ?jobs:int ->
  ?arms:arm list ->
  cluster:Rats_platform.Cluster.t ->
  Profile.t ->
  Report.t list
(** Compiles the profile's trace once and runs every arm over it
    ([arms] defaults to {!default_arms}), in order. *)

val csv : Report.t list -> string
(** Header plus one row per report, trailing newline — the byte-stable
    golden format under [bench_results/]. *)

val write_csv : string -> Report.t list -> unit
