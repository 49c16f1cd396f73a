module Profile = Rats_workload.Profile
module Tenant = Rats_workload.Tenant
module Trace = Rats_workload.Trace
module Report = Rats_workload.Report
module Rats = Rats_core.Rats
module Api = Rats_server.Api
module Admission = Rats_server.Admission
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type arm = Delta | Hcpa | Timecost | Packing

let arm_name = function
  | Delta -> "delta"
  | Hcpa -> "hcpa"
  | Timecost -> "time-cost"
  | Packing -> "packing"

let all_arms = [ Delta; Hcpa; Timecost; Packing ]
let default_arms = [ Delta; Hcpa; Packing ]

let arm_of_string s =
  match List.find_opt (fun a -> arm_name a = s) all_arms with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown arm %S (expected one of: %s)" s
           (String.concat ", " (List.map arm_name all_arms)))

(* RATS arms override the trace's baked strategy; the packing arm replaces
   the whole allocate-and-map pipeline. *)
let with_strategy strategy ~cluster (r : Api.request) =
  Api.plan ~cluster { r with Api.strategy }

let planner = function
  | Delta -> Some (with_strategy (Rats.Delta Rats.naive_delta))
  | Hcpa -> Some (with_strategy Rats.Baseline)
  | Timecost -> Some (with_strategy (Rats.Timecost Rats.naive_timecost))
  | Packing -> Some Packing.plan

(* One tenant's tally from the event log; sojourns in completion order. *)
let tally events (tenant : Tenant.t) =
  let name = tenant.Tenant.name in
  let mine =
    List.filter (fun (ev : Api.stamped) -> ev.Api.tenant = name) events
  in
  let count p =
    List.length (List.filter (fun (ev : Api.stamped) -> p ev.Api.event) mine)
  in
  {
    Report.tenant = name;
    submitted = count (function Api.Submitted _ -> true | _ -> false);
    completed = count (function Api.Completed _ -> true | _ -> false);
    rejected = count (function Api.Rejected _ -> true | _ -> false);
    expired = count (function Api.Expired _ -> true | _ -> false);
    sojourns =
      Array.of_list
        (List.filter_map
           (fun (ev : Api.stamped) ->
             match ev.Api.event with
             | Api.Completed { sojourn; _ } -> Some sojourn
             | _ -> None)
           mine);
  }

let run_arm ?(policy = Admission.default) ?jobs ?fault ?on_event ~cluster
    ~(profile : Profile.t) ~(trace : Trace.t) arm =
  let config =
    {
      (Engine.default_config cluster) with
      policy;
      jobs;
      fault;
      planner = planner arm;
    }
  in
  let engine = Engine.create config in
  Option.iter (Engine.subscribe engine) on_event;
  Array.iter
    (fun (job : Trace.job) ->
      match Engine.submit engine ~at:job.Trace.at (Load.request_of_job job) with
      | Ok (_ : int) -> ()
      | Error e -> invalid_arg ("Study.run_arm: invalid trace job: " ^ e))
    trace;
  let end_time = Engine.drain engine in
  let s = Engine.stats engine in
  Metrics.incr Instr.workload_arm_runs;
  Report.make ~profile:profile.Profile.name ~arm:(arm_name arm) ~end_time
    ~utilization:s.Engine.utilization ~queue_depth_max:s.Engine.queue_depth_max
    (List.map (tally (Engine.events engine)) profile.Profile.tenants)

let run ?policy ?jobs ?(arms = default_arms) ~cluster profile =
  let trace = Trace.compile profile in
  List.map (fun arm -> run_arm ?policy ?jobs ~cluster ~profile ~trace arm) arms

let csv reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf Report.csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (Report.csv_row r);
      Buffer.add_char buf '\n')
    reports;
  Buffer.contents buf

let write_csv path reports =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (csv reports))
