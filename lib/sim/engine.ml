module Cluster = Rats_platform.Cluster
module Pqueue = Rats_util.Pqueue
module Metrics = Rats_obs.Metrics
module Trace = Rats_obs.Trace
module Instr = Rats_obs.Instr
module Inc = Maxmin.Incremental

type flow = {
  links : int array;
  rate_cap : float;
  bytes : float;
  on_complete : t -> unit;
}

and t = {
  cluster : Cluster.t;
  mutable time : float;
  events : (t -> unit) Pqueue.t;
  solver : Inc.t;
  (* Active, transferring flows in activation order: index [i < n_flows]
     of the four parallel arrays describes one flow. Keeping the per-flow
     floats in flat arrays lets the drain loop update them unboxed. *)
  mutable flows : flow array;
  mutable handle : Inc.handle array;  (* solver slot *)
  mutable remaining : float array;  (* bytes left to transfer *)
  mutable rate : float array;  (* fair rate as of the last refresh *)
  mutable n_flows : int;
  mutable rates_valid : bool;
  (* Plain (single-domain) observability counters; published to the global
     metrics registry once per [run] so the hot loop never touches an
     atomic. *)
  mutable events_processed : int;
  mutable max_queue_depth : int;
  mutable published_events : int;
}

let dummy_flow =
  { links = [||]; rate_cap = infinity; bytes = 0.; on_complete = (fun _ -> ()) }

let create cluster =
  {
    cluster;
    time = 0.;
    events = Pqueue.create ();
    solver =
      Inc.create
        ~n_links:(Cluster.n_links cluster)
        ~capacity:(fun l -> (Cluster.link cluster l).Rats_platform.Link.bandwidth)
        ();
    flows = Array.make 64 dummy_flow;
    handle = Array.make 64 (-1);
    remaining = Array.make 64 0.;
    rate = Array.make 64 0.;
    n_flows = 0;
    rates_valid = false;
    events_processed = 0;
    max_queue_depth = 0;
    published_events = 0;
  }

let cluster t = t.cluster
let now t = t.time

let at t time f =
  if time < t.time -. 1e-12 then invalid_arg "Engine.at: time in the past";
  Pqueue.push t.events (Float.max time t.time) f;
  let depth = Pqueue.size t.events in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth

let after t delay f = at t (t.time +. Float.max 0. delay) f

let grow a n init =
  let bigger = Array.make (2 * n) init in
  Array.blit a 0 bigger 0 n;
  bigger

let activate_flow t flow =
  let n = t.n_flows in
  if n = Array.length t.flows then begin
    t.flows <- grow t.flows n dummy_flow;
    t.handle <- grow t.handle n (-1);
    t.remaining <- grow t.remaining n 0.;
    t.rate <- grow t.rate n 0.
  end;
  t.flows.(n) <- flow;
  t.handle.(n) <- Inc.add t.solver ~links:flow.links ~rate_cap:flow.rate_cap;
  t.remaining.(n) <- flow.bytes;
  t.rate.(n) <- 0.;
  t.n_flows <- n + 1;
  t.rates_valid <- false

let start_flow t ~src ~dst ~bytes ~on_complete =
  let route = Cluster.route t.cluster ~src ~dst in
  if bytes <= 0. || Array.length route = 0 then
    (* Free transfer: local copy or empty payload. Completion still goes
       through the queue so observers see a consistent event order. *)
    at t t.time (fun t -> on_complete t)
  else begin
    let latency = Cluster.one_way_latency t.cluster ~route in
    let rate_cap = Cluster.flow_rate_cap t.cluster ~route in
    let flow = { links = route; rate_cap; bytes; on_complete } in
    after t latency (fun t -> activate_flow t flow)
  end

let active_flows t = t.n_flows

let refresh_rates t =
  Inc.refresh t.solver;
  for i = 0 to t.n_flows - 1 do
    t.rate.(i) <- Inc.rate t.solver t.handle.(i)
  done;
  t.rates_valid <- true

(* A transferred remainder below this is rounding noise (sub-microbyte). *)
let eps_bytes = 1e-6

let next_flow_completion t =
  let acc = ref infinity in
  for i = 0 to t.n_flows - 1 do
    let rate = t.rate.(i) in
    if rate > 0. then acc := Float.min !acc (t.time +. (t.remaining.(i) /. rate))
  done;
  !acc

(* Date of the next flow completion or queued event, whichever is first. *)
let next_date t =
  if not t.rates_valid then refresh_rates t;
  Float.min (next_flow_completion t) (Pqueue.min_prio t.events)

(* Advance the clock to [date], draining flow payloads at current rates. A
   flow also counts as finished when its residue would drain within a
   nanosecond: otherwise a residue smaller than the clock's ulp could stall
   the simulation (time would stop advancing). *)
let advance_to t date =
  let dt = date -. t.time in
  if dt > 0. then
    for i = 0 to t.n_flows - 1 do
      t.remaining.(i) <- t.remaining.(i) -. (t.rate.(i) *. dt)
    done;
  t.time <- date;
  (* Compact survivors in place; finished flows accumulate newest-first
     (their completion callbacks historically ran in reverse activation
     order, and schedule replay observes that order). *)
  let finished = ref [] in
  let live = ref 0 in
  for i = 0 to t.n_flows - 1 do
    if t.remaining.(i) <= eps_bytes +. (t.rate.(i) *. 1e-9) then begin
      Inc.remove t.solver t.handle.(i);
      t.events_processed <- t.events_processed + 1;
      finished := t.flows.(i) :: !finished
    end
    else begin
      let j = !live in
      if j < i then begin
        t.flows.(j) <- t.flows.(i);
        t.handle.(j) <- t.handle.(i);
        t.remaining.(j) <- t.remaining.(i);
        t.rate.(j) <- t.rate.(i)
      end;
      live := j + 1
    end
  done;
  match !finished with
  | [] -> ()
  | fin ->
      Array.fill t.flows !live (t.n_flows - !live) dummy_flow;
      t.n_flows <- !live;
      t.rates_valid <- false;
      List.iter (fun f -> f.on_complete t) fin

let step t =
  let date = next_date t in
  if date = infinity then false
  else begin
    advance_to t date;
    (* Run every callback scheduled at this date (callbacks may enqueue more
       work at the same date; keep draining). *)
    while Pqueue.min_prio t.events <= t.time +. 1e-15 do
      match Pqueue.pop t.events with
      | Some (_, f) ->
          t.events_processed <- t.events_processed + 1;
          f t
      | None -> ()
    done;
    true
  end

let events_processed t = t.events_processed
let max_queue_depth t = t.max_queue_depth

(* Counter deltas go to the registry in one batch; repeated runs of the
   same engine publish only what the latest run added. *)
let publish t =
  let d = t.events_processed - t.published_events in
  if d > 0 then Metrics.add Instr.sim_events d;
  t.published_events <- t.events_processed;
  Metrics.observe_max Instr.sim_queue_depth_max
    (float_of_int t.max_queue_depth);
  Inc.publish t.solver

let run t =
  Trace.span ~cat:"sim" "sim:run"
    ~args:(fun () ->
      [
        ("events", string_of_int t.events_processed);
        ("max_queue_depth", string_of_int t.max_queue_depth);
      ])
    (fun () ->
      while step t do
        ()
      done;
      Metrics.incr Instr.sim_runs;
      publish t;
      t.time)

let run_until t date =
  if date < t.time then invalid_arg "Engine.run_until: date in the past";
  while next_date t <= date && step t do
    ()
  done;
  advance_to t date;
  publish t
