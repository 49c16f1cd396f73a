(** Workload traces as service requests.

    The workload library ({!Rats_workload}) sits below the service API, so
    the conversion of its compiled jobs into {!Api.request}s lives here.
    Traces themselves come from {!Rats_workload.Trace.compile}; the one
    loop that submits a trace, drains and tallies is
    [Rats_workload_study.Study.run_arm]. *)

val request_of_job : Rats_workload.Trace.job -> Api.request
(** Suite applications submit as [Api.Generated], pipeline chains as
    [Api.Inline] task/edge definitions. *)
