module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Problem = Rats_core.Problem
module Hcpa = Rats_core.Hcpa
module Rats = Rats_core.Rats
module Schedule = Rats_core.Schedule
module Evaluate = Rats_core.Evaluate
module Api = Rats_server.Api
module Admission = Rats_server.Admission
module Engine = Rats_server.Engine
module Load = Rats_server.Load
module Profile = Rats_workload.Profile
module Trace = Rats_workload.Trace
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type scale = {
  configs : int option;
  jobs : int;
}

let full = { configs = None; jobs = 2000 }

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  notes : string list;
}

(* --- passes --------------------------------------------------------------- *)

(* One pass is a fixed unit of work: the whole configuration slice, or the
   whole arrival trace. *)
type pass = {
  traced : bool;
  time_s : float;  (** Host time inside the layer calls the pass times. *)
  wall_s : float;  (** Including the benchmark's own checks. *)
  ops : int;
  failed : int;
  gc : Probe.gc;  (** Across the timed calls only. *)
  spans : Probe.span list;  (** Empty unless traced. *)
  observed : (string * float) list;
      (** Per-layer values read outside spans (engine stats, gauges). *)
}

let timed_gc f =
  let g0 = Probe.gc_now () in
  let t0 = Probe.now () in
  let r = try Ok (f ()) with e -> Error e in
  let dt = Probe.now () -. t0 in
  (r, dt, Probe.gc_diff g0 (Probe.gc_now ()))

let median_of f xs = Quantile.median (Array.of_list (List.map f xs))

let pass_note passes =
  String.concat " "
    (List.map
       (fun p -> Printf.sprintf "%.3f%s" p.time_s (if p.traced then "T" else ""))
       passes)

(* Runs [f] with the probe enabled when [traced]; returns its result and
   the spans it recorded. *)
let recorded probe ~traced f =
  let mark = Probe.n_spans probe in
  Probe.set_enabled probe traced;
  let r = Fun.protect ~finally:(fun () -> Probe.set_enabled probe false) f in
  (r, List.filter (fun (s : Probe.span) -> s.Probe.id >= mark) (Probe.spans probe))

type 'a measured = {
  input : 'a;  (** The first set-up's result, used by every pass. *)
  setup_s : float;  (** Median set-up time. *)
  setup_spans : Probe.span list list;  (** Per traced set-up repetition. *)
  passes : pass list;
  peak_heap_mb : float;  (** After set-up and pass 0. *)
}

(* Sets up [setup_reps] times, then runs passes. Two more set-ups before every
   pass spread the set-up samples over the run, as the passes are, so one
   burst of machine noise cannot skew [setup_s] alone.

   Untraced pass 0 warms up and is the determinism reference; with tracing
   on, later passes alternate traced / untraced so the tracing overhead is
   a paired comparison. Another pass starts only while it is expected to end
   within [seconds] (the previous pass's length), so a run never overshoots
   by a whole pass; [enough] can demand more. The peak heap is read after
   pass 0, so it does not depend on how many passes fit. *)
let setup_reps = 5

let measure probe ~seconds ~trace ~enough ~setup one_pass =
  let times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let t0 = Probe.now () in
    let r = setup () in
    times := (Probe.now () -. t0) :: !times;
    r
  in
  let input, first_spans = recorded probe ~traced:trace timed_setup in
  let setup_spans =
    first_spans
    :: List.init (setup_reps - 1) (fun _ ->
           snd (recorded probe ~traced:trace (fun () -> ignore (timed_setup ()))))
  in
  let t0 = Probe.now () in
  let min_passes = if trace then 3 else 1 in
  let fits = function
    | [] -> true
    | p :: _ -> Probe.now () -. t0 +. p.wall_s <= seconds
  in
  let rec go i acc peak =
    if i >= min_passes && enough () && not (fits acc) then (List.rev acc, peak)
    else begin
      ignore (timed_setup ());
      ignore (timed_setup ());
      let traced = trace && i mod 2 = 1 in
      (* Every pass starts from a collected heap, so passes behave alike. *)
      Gc.compact ();
      let w0 = Probe.now () in
      let p, spans = recorded probe ~traced (fun () -> one_pass input i) in
      let wall_s = Probe.now () -. w0 in
      let peak = if i = 0 then Probe.peak_heap_mb () else peak in
      go (i + 1) ({ p with traced; wall_s; spans } :: acc) peak
    end
  in
  let passes, peak_heap_mb = go 0 [] 0. in
  {
    input;
    setup_s = Quantile.median (Array.of_list !times);
    setup_spans;
    passes;
    peak_heap_mb;
  }

(* --- per-layer attribution ------------------------------------------------ *)

let ratio num den = if den > 0. then num /. den else 0.

(* Per-layer values of one group of spans (a pass or a set-up repetition). *)
let span_values (spans : Probe.span list) =
  let agg = Probe.aggregate spans in
  let total name = match agg name with Some a -> a.Probe.total_s | None -> 0. in
  let self name = match agg name with Some a -> a.Probe.self_s | None -> 0. in
  let count counter names =
    let i = Probe.counter_index counter in
    List.fold_left
      (fun acc n ->
        match agg n with Some a -> acc + a.Probe.counts.(i) | None -> acc)
      0 names
    |> float_of_int
  in
  let sim c = count c [ "core.evaluate"; "server.drain" ] in
  let full = sim "sim.maxmin_full_refreshes"
  and inc = sim "sim.maxmin_inc_refreshes"
  and dirty = sim "sim.maxmin_dirty_flows"
  and skipped = sim "sim.maxmin_skipped_flows" in
  let events = sim "sim.events" in
  let sim_host_s = total "core.evaluate" +. self "server.drain" in
  [
    ("daggen.generate_s", total "daggen.generate");
    ("core.problem_make_s", total "core.problem_make");
    ("dag.timing_entries", count "dag.timing_entries" [ "core.problem_make" ]);
    ("workload.trace_compile_s", total "workload.trace_compile");
    ("core.hcpa_s", total "core.hcpa");
    ("core.hcpa_refinements", count "core.hcpa_refinements" [ "core.hcpa" ]);
    ("core.map_s", total "core.map");
    ("core.timing_lookups", count "core.timing_lookups" [ "core.hcpa"; "core.map" ]);
    ("core.map_packed", count "core.map_packed" [ "core.map" ]);
    ("core.map_stretched", count "core.map_stretched" [ "core.map" ]);
    ("core.evaluate_s", total "core.evaluate");
    ("sim.events", events);
    ("sim.host_us_per_event", 1e6 *. ratio sim_host_s events);
    ("sim.maxmin_full_refreshes", full);
    ("sim.maxmin_inc_refreshes", inc);
    ("sim.maxmin_component_solves", sim "sim.maxmin_component_solves");
    ("sim.maxmin_rounds", sim "sim.maxmin_rounds");
    ("sim.maxmin_dirty_flows", dirty);
    ("sim.maxmin_skipped_flows", skipped);
    ("sim.maxmin_inc_share", ratio inc (inc +. full));
    ("sim.maxmin_skip_ratio", ratio skipped (skipped +. dirty));
    ("server.submit_s", total "server.submit");
    ("server.drain_s", total "server.drain");
    ("server.plan_s", total "server.plan");
    ("server.plan_self_s", self "server.plan");
    ("server.replay_s", self "server.drain");
  ]

let pass_values (p : pass) =
  let sv = span_values p.spans in
  let events = List.assoc "sim.events" sv in
  let in_layers =
    List.fold_left
      (fun acc (s : Probe.span) ->
        if s.Probe.parent < 0 then acc +. (s.Probe.stop -. s.Probe.start)
        else acc)
      0. p.spans
  in
  let own =
    [
      ("gc.alloc_words_per_op", ratio p.gc.Probe.minor_words (float_of_int p.ops));
      ("gc.alloc_words_per_event", ratio p.gc.Probe.minor_words events);
      ("gc.minor_collections", float_of_int p.gc.Probe.minor_collections);
      ("gc.major_collections", float_of_int p.gc.Probe.major_collections);
      ("gc.promoted_words", p.gc.Probe.promoted_words);
      ("bench.self_s", p.wall_s -. in_layers);
      ("trace.spans", float_of_int (List.length p.spans));
    ]
  in
  sv @ own @ p.observed

(* Per-layer metrics in catalogue order: medians over traced passes, plus
   medians over set-up repetitions for the set-up layers (a metric is
   non-zero in at most one of the two). *)
let per_layer_metrics ~setup_spans (passes : pass list) =
  let traced = List.filter (fun p -> p.traced) passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let pass_vals = List.map pass_values traced in
  let setup_vals = List.map span_values setup_spans in
  let med vals name =
    match vals with
    | [] -> 0.
    | _ ->
        median_of
          (fun v -> Option.value (List.assoc_opt name v) ~default:0.)
          vals
  in
  (* Overhead: traced vs untraced pass time, warm-up pass excluded when
     another untraced pass exists. *)
  let untraced =
    match untraced with _ :: (_ :: _ as rest) -> rest | l -> l
  in
  let overhead =
    100.
    *. (ratio (median_of (fun p -> p.time_s) traced)
          (median_of (fun p -> p.time_s) untraced)
       -. 1.)
  in
  List.map
    (fun (m : Catalog.metric) ->
      let name = m.Catalog.name in
      let v =
        if name = "trace.overhead_pct" then overhead
        else med pass_vals name +. med setup_vals name
      in
      (name, v))
    Catalog.per_layer

(* --- batch sweeps ---------------------------------------------------------- *)

let strategies =
  [| Rats.Baseline; Rats.Delta Rats.naive_delta; Rats.Timecost Rats.naive_timecost |]

(* Every fourth smoke configuration (all four app kinds) at sample 0,
   tagged with its slice index and processed in a seed-drawn order. The
   sample index stays at 0 — the committed Figure 2 rows — because one
   random DAG's simulation cost varies up to 3x between suite samples, so
   configurations per second would measure the seed rather than the code. *)
let slice scale ~seed =
  let specs =
    List.filteri (fun i _ -> i mod 4 = 0) (Suite.all Suite.Smoke)
  in
  let specs =
    match scale.configs with
    | Some n -> List.filteri (fun i _ -> i < n) specs
    | None -> specs
  in
  let a = Array.of_list (List.mapi (fun i c -> (i, c)) specs) in
  let rng = Rats_util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Rats_util.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The committed Figure 2 CSV rows, keyed by configuration name. *)
let load_reference path =
  let table = Hashtbl.create 256 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              let line = input_line ic in
              match String.index_opt line ',' with
              | Some i -> Hashtbl.replace table (String.sub line 0 i) line
              | None -> ()
            done
          with End_of_file -> ()));
  table

type row = { makespans : float array; works : float array }

let csv_line cluster config row =
  Printf.sprintf "%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f" (Suite.name config)
    cluster.Cluster.name
    (Suite.kind_name (Suite.kind config))
    row.makespans.(0) row.makespans.(1) row.makespans.(2) row.works.(0)
    row.works.(1) row.works.(2)

(* HCPA allocation, the three mappings and the three replays of one
   configuration. Every mapping call is one planning-latency sample. *)
let run_config probe ~req ~samples problem =
  Probe.span probe ~req "sweep.config" (fun () ->
      let alloc = Probe.span probe "core.hcpa" (fun () -> Hcpa.allocate problem) in
      Array.map
        (fun strategy ->
          let t0 = Probe.now () in
          let schedule =
            Probe.span probe "core.map" (fun () ->
                Rats.schedule ~alloc problem strategy)
          in
          samples := (Probe.now () -. t0) :: !samples;
          let sim = Probe.span probe "core.evaluate" (fun () -> Evaluate.run schedule) in
          (schedule, sim))
        strategies)

(* Output checks: every schedule passes [Schedule.make]'s validation again
   and every simulated makespan is finite and positive. *)
let check_config problem results =
  Array.iter
    (fun (schedule, (sim : Evaluate.result)) ->
      ignore (Schedule.make problem (Schedule.entries schedule) : Schedule.t);
      let ms = sim.Evaluate.makespan in
      if not (Float.is_finite ms && ms > 0.) then
        failwith (Printf.sprintf "simulated makespan %h" ms))
    results;
  {
    makespans = Array.map (fun (_, sim) -> sim.Evaluate.makespan) results;
    works = Array.map (fun (s, _) -> Schedule.total_work s) results;
  }

(* The result of a run, from its measured passes. Throughput is operations
   per host second of the passes' timed calls; [samples] are the
   planning-latency samples, whose [p_tail] quantile must have at least
   [Quantile.min_beyond] samples beyond it. *)
let add_note notes fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let outcome probe ~notes ~trace ~p_tail ~samples ~sim_ratio m =
  let passes = m.passes in
  let attempted = List.fold_left (fun a p -> a + p.ops) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  let time = List.fold_left (fun a p -> a +. p.time_s) 0. passes in
  let samples = Array.of_list samples in
  let tail =
    match Quantile.tail ~p:p_tail samples with
    | Some v -> v
    | None -> invalid_arg "Workloads: too few planning samples for the tail"
  in
  add_note notes "pass host times (s, T = traced): %s" (pass_note passes);
  add_note notes "%d planning samples (p%g: %d beyond)" (Array.length samples)
    (100. *. p_tail)
    (Quantile.beyond ~p:p_tail (Array.length samples));
  ( probe,
    {
      attempted;
      failed;
      end_to_end =
        [
          ("setup_s", m.setup_s);
          ("throughput_ops_s", float_of_int attempted /. time);
          ("plan_p50_ms", 1e3 *. Quantile.median samples);
          ("plan_tail_ms", 1e3 *. tail);
          ("peak_heap_mb", m.peak_heap_mb);
          ("ok_ratio", 1. -. (float_of_int failed /. float_of_int (max 1 attempted)));
          ("sim_makespan_ratio", sim_ratio);
        ];
      per_layer =
        (if trace then per_layer_metrics ~setup_spans:m.setup_spans passes else []);
      notes = List.rev !notes;
    } )

let enough_samples ~p samples () =
  Quantile.beyond ~p (List.length !samples) >= Quantile.min_beyond

let sweep ?(reference_csv = "bench_results/naive_grillon.csv") ~scale ~cluster
    ~seed ~seconds ~trace () =
  let probe = Probe.create () in
  let configs = slice scale ~seed in
  let prepare () =
    List.map
      (fun (req, config) ->
        Probe.span probe ~req "sweep.setup" (fun () ->
            let dag =
              Probe.span probe "daggen.generate" (fun () -> Suite.generate config)
            in
            ( req,
              config,
              Probe.span probe "core.problem_make" (fun () ->
                  Problem.make ~dag ~cluster) )))
      configs
  in
  (* On grillon the rows are the committed Figure 2 run's. *)
  let reference =
    if cluster.Cluster.name = "grillon" then Some (load_reference reference_csv)
    else None
  in
  let first = Array.make (List.length configs) None in
  let notes = ref [] in
  let note fmt = add_note notes fmt in
  let samples = ref [] in
  let one_pass problems i =
    Metrics.set Instr.sim_queue_depth_max 0.;
    let time_s = ref 0. and gc = ref Probe.gc_zero and failed = ref 0 in
    List.iter
      (fun (req, config, problem) ->
        let result, dt, dgc =
          timed_gc (fun () -> run_config probe ~req ~samples problem)
        in
        time_s := !time_s +. dt;
        gc := Probe.gc_add !gc dgc;
        let verdict =
          match result with
          | Error e -> Error (Printexc.to_string e)
          | Ok results -> (
              match check_config problem results with
              | exception e -> Error (Printexc.to_string e)
              | row -> (
                  if i = 0 then first.(req) <- Some row;
                  if first.(req) <> Some row then Error "result differs from pass 0"
                  else
                    match reference with
                    | None -> Ok ()
                    | Some table -> (
                        match Hashtbl.find_opt table (Suite.name config) with
                        | Some expected
                          when expected = csv_line cluster config row ->
                            Ok ()
                        | Some _ -> Error "row differs from the committed CSV"
                        | None -> Error "row missing from the committed CSV")))
        in
        match verdict with
        | Ok () -> ()
        | Error msg ->
            incr failed;
            if i = 0 then note "FAILED %s: %s" (Suite.name config) msg)
      problems;
    {
      traced = false;
      time_s = !time_s;
      wall_s = 0.;
      ops = List.length problems;
      failed = !failed;
      gc = !gc;
      spans = [];
      observed =
        [
          ("plan.samples", float_of_int (Array.length strategies * List.length problems));
          ("sim.queue_depth_max", Metrics.gauge_value Instr.sim_queue_depth_max);
        ];
    }
  in
  let p_tail = 0.9 in
  let m =
    measure probe ~seconds ~trace
      ~enough:(enough_samples ~p:p_tail samples)
      ~setup:prepare one_pass
  in
  (* Slice order, so the mean does not depend on the seed. *)
  let ratios =
    Array.to_list first
    |> List.filter_map (Option.map (fun row -> row.makespans.(1) /. row.makespans.(0)))
  in
  let sim_ratio =
    match ratios with [] -> 0. | l -> Quantile.mean (Array.of_list l)
  in
  note "%d configurations x %d passes on %s (order seed %d)" (List.length configs)
    (List.length m.passes) cluster.Cluster.name seed;
  if reference <> None then note "rows checked against %s" reference_csv;
  outcome probe ~notes ~trace ~p_tail ~samples:!samples ~sim_ratio m

(* --- online service ------------------------------------------------------- *)

(* The admission policy of the repository's workload studies
   ([bench/main.exe workload]): tight enough that the mixed profile
   exercises rejection and expiry. *)
let policy =
  Admission.make ~deadline_s:400. ~queue_limit:32 ~tenant_limit:8 ()

type planned = {
  mutable next_req : int;
  mutable latencies : float list;
  mutable schedules : Schedule.t list;
}

(* The engine's planner hook, timed per call. Untraced, it is [Api.plan]
   itself, what the engine runs without a hook, so the end-to-end figures
   time the engine's own planner. Traced, it is [Api.plan]'s composition —
   DAG generation, problem, HCPA allocation, the request's strategy — with a
   span around each step, for the per-layer split. *)
let planner probe st ~cluster (r : Api.request) =
  let req = st.next_req in
  st.next_req <- req + 1;
  let t0 = Probe.now () in
  let schedule =
    if not (Probe.enabled probe) then Api.plan ~cluster r
    else
      Probe.span probe ~req "server.plan" (fun () ->
          let dag =
            Probe.span probe "daggen.generate" (fun () -> Api.dag_of_spec r.Api.job)
          in
          let problem =
            Probe.span probe "core.problem_make" (fun () ->
                Problem.make ~dag ~cluster)
          in
          let alloc = Probe.span probe "core.hcpa" (fun () -> Hcpa.allocate problem) in
          Probe.span probe "core.map" (fun () ->
              Rats.schedule ~alloc problem r.Api.strategy))
  in
  st.latencies <- (Probe.now () -. t0) :: st.latencies;
  st.schedules <- schedule :: st.schedules;
  schedule

let engine_config probe st cluster =
  {
    (Engine.default_config cluster) with
    Engine.policy;
    jobs = Some 1;
    planner = Some (planner probe st);
  }

let service_config probe cluster =
  engine_config probe { next_req = 0; latencies = []; schedules = [] } cluster

(* What must repeat exactly from pass to pass. *)
type signature = {
  completed : int;
  rejected : int;
  expired : int;
  sojourns : float array;
  ratios : float array;  (** Simulated / estimated makespan per completed job. *)
}

(* Output checks; returns the pass signature and the number of failed jobs:
   invalid schedules, non-finite or non-positive simulated makespans, and
   jobs missing from completed + rejected + expired. *)
let check_service engine st ~submitted =
  let failed = ref 0 in
  List.iter
    (fun s ->
      match Schedule.make (Schedule.problem s) (Schedule.entries s) with
      | (_ : Schedule.t) -> ()
      | exception Invalid_argument _ -> incr failed)
    st.schedules;
  let estimates = Hashtbl.create 1024 in
  let rev_ratios = ref [] in
  List.iter
    (fun (ev : Api.stamped) ->
      match ev.Api.event with
      | Api.Started { est_makespan; _ } ->
          Hashtbl.replace estimates ev.Api.job_id est_makespan
      | Api.Completed { makespan; _ } -> (
          match Hashtbl.find_opt estimates ev.Api.job_id with
          | Some est when Float.is_finite makespan && makespan > 0. && est > 0. ->
              rev_ratios := (makespan /. est) :: !rev_ratios
          | _ -> incr failed)
      | _ -> ())
    (Engine.events engine);
  let s = Engine.stats engine in
  let accounted = s.Engine.completed + s.Engine.rejected + s.Engine.expired in
  failed := !failed + abs (submitted - accounted);
  ( {
      completed = s.Engine.completed;
      rejected = s.Engine.rejected;
      expired = s.Engine.expired;
      sojourns = s.Engine.sojourns;
      ratios = Array.of_list (List.rev !rev_ratios);
    },
    !failed )

let service ~scale ~cluster ~seed ~seconds ~trace () =
  let probe = Probe.create () in
  let spec = Printf.sprintf "mixed:jobs=%d,seed=%d" scale.jobs seed in
  let setup () =
    Probe.span probe "service.setup" (fun () ->
        let profile =
          match Profile.of_string ~cluster spec with
          | Ok p -> p
          | Error e -> invalid_arg ("profile " ^ spec ^ ": " ^ e)
        in
        let trace =
          Probe.span probe "workload.trace_compile" (fun () -> Trace.compile profile)
        in
        let requests =
          Array.map (fun (j : Trace.job) -> (j.Trace.at, Load.request_of_job j)) trace
        in
        ignore
          (Probe.span probe "server.create" (fun () ->
               Engine.create (service_config probe cluster))
            : Engine.t);
        requests)
  in
  let reference = ref None in
  let latencies = ref [] in
  let notes = ref [] in
  let note fmt = add_note notes fmt in
  let one_pass requests i =
    let submitted = Array.length requests in
    let st = { next_req = 0; latencies = []; schedules = [] } in
    let engine = Engine.create (engine_config probe st cluster) in
    Metrics.set Instr.sim_queue_depth_max 0.;
    let bad_submits =
      Probe.span probe "server.submit" (fun () ->
          Array.fold_left
            (fun bad (at, r) ->
              match Engine.submit engine ~at r with
              | Ok (_ : int) -> bad
              | Error _ -> bad + 1)
            0 requests)
    in
    let drained, drain_s, gc =
      timed_gc (fun () -> Probe.span probe "server.drain" (fun () -> Engine.drain engine))
    in
    latencies := List.rev_append st.latencies !latencies;
    let failed =
      match drained with
      | Error e ->
          if i = 0 then note "FAILED pass %d: %s" i (Printexc.to_string e);
          submitted
      | Ok (_ : float) ->
          let signature, failed = check_service engine st ~submitted in
          if i = 0 then reference := Some signature;
          if !reference <> Some signature then begin
            note "FAILED pass %d: outcome differs from pass 0" i;
            submitted
          end
          else failed + bad_submits
    in
    let s = Engine.stats engine in
    {
      traced = false;
      time_s = drain_s;
      wall_s = 0.;
      ops = submitted;
      failed;
      gc;
      spans = [];
      observed =
        [
          ("plan.samples", float_of_int (List.length st.latencies));
          ("sim.queue_depth_max", Metrics.gauge_value Instr.sim_queue_depth_max);
          ("server.admitted", float_of_int s.Engine.admitted);
          ("server.rejected", float_of_int s.Engine.rejected);
          ("server.expired", float_of_int s.Engine.expired);
          ("server.completed", float_of_int s.Engine.completed);
          ("server.queue_depth_max", float_of_int s.Engine.queue_depth_max);
          ( "server.sojourn_p99_s",
            Option.value (Quantile.tail ~p:0.99 s.Engine.sojourns) ~default:0. );
        ];
    }
  in
  let p_tail = 0.99 in
  let m =
    measure probe ~seconds ~trace
      ~enough:(enough_samples ~p:p_tail latencies)
      ~setup one_pass
  in
  let sim_ratio =
    match !reference with
    | Some { ratios; _ } when Array.length ratios > 0 -> Quantile.mean ratios
    | _ -> 0.
  in
  (match !reference with
  | Some r ->
      note "%d jobs x %d passes (mixed, seed %d): %d completed, %d rejected, %d expired"
        (Array.length m.input) (List.length m.passes) seed r.completed r.rejected
        r.expired
  | None -> ());
  outcome probe ~notes ~trace ~p_tail ~samples:!latencies ~sim_ratio m

let run ?reference_csv ?(scale = full) ~workload ~seed ~seconds ~trace () =
  match workload with
  | "sweep_grillon" ->
      sweep ?reference_csv ~scale ~cluster:Cluster.grillon ~seed ~seconds ~trace ()
  | "sweep_grelon" ->
      sweep ?reference_csv ~scale ~cluster:Cluster.grelon ~seed ~seconds ~trace ()
  | "service_mixed" -> service ~scale ~cluster:Cluster.grillon ~seed ~seconds ~trace ()
  | w -> invalid_arg ("unknown workload " ^ w)
