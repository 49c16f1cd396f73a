(* Cross-cutting property tests: invariants that tie several layers together,
   checked over randomly generated instances. *)

module Dag = Rats_dag.Dag
module Task = Rats_dag.Task
module Shape = Rats_daggen.Shape
module Random_dag = Rats_daggen.Random_dag
module Suite = Rats_daggen.Suite
module Rng = Rats_util.Rng
module Procset = Rats_util.Procset
module Cluster = Rats_platform.Cluster
module Core = Rats_core

let qcheck t = Rats_test_support.Seeded.to_alcotest t

let random_dag seed n =
  let shape = Shape.make ~width:0.5 ~regularity:0.5 ~density:0.5 ~jump:2 () in
  Random_dag.irregular (Rng.create seed) ~n_tasks:n ~shape

let dag_gen = QCheck.(pair (int_range 0 10_000) (int_range 5 40))

(* --- DAG structure ------------------------------------------------------- *)

let prop_topo_respects_edges =
  QCheck.Test.make ~count:100 ~name:"topological order puts sources first"
    dag_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let order = Dag.topological_order dag in
      let pos = Array.make (Dag.n_tasks dag) 0 in
      Array.iteri (fun k t -> pos.(t) <- k) order;
      List.for_all (fun e -> pos.(e.Dag.src) < pos.(e.Dag.dst)) (Dag.edges dag))

let prop_bottom_levels_decrease_along_edges =
  QCheck.Test.make ~count:100
    ~name:"bottom level strictly dominates every successor's" dag_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let bl = Dag.bottom_levels dag ~task_cost:(fun _ -> 1.) ~edge_cost:(fun _ _ _ -> 0.) in
      List.for_all (fun e -> bl.(e.Dag.src) >= bl.(e.Dag.dst) +. 1.) (Dag.edges dag))

let prop_top_plus_bottom_bounded_by_cp =
  QCheck.Test.make ~count:100
    ~name:"top level + bottom level never exceeds the critical path" dag_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let cost _ = 1. and ecost _ _ _ = 0. in
      let bl = Dag.bottom_levels dag ~task_cost:cost ~edge_cost:ecost in
      let tl = Dag.top_levels dag ~task_cost:cost ~edge_cost:ecost in
      let _, c_inf = Dag.critical_path dag ~task_cost:cost ~edge_cost:ecost in
      let ok = ref true in
      for i = 0 to Dag.n_tasks dag - 1 do
        if tl.(i) +. bl.(i) > c_inf +. 1e-9 then ok := false
      done;
      !ok)

let prop_depths_bounded_by_levels =
  QCheck.Test.make ~count:100 ~name:"level count equals max depth + 1" dag_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let d = Dag.depths dag in
      Array.length (Dag.level_groups dag) = 1 + Array.fold_left max 0 d)

(* --- Redistribution estimates --------------------------------------------- *)

let flat8 =
  Cluster.make ~name:"flat8" ~topology:(Rats_platform.Topology.Flat 8)
    ~speed_gflops:1. ()

let procs_list = QCheck.(list_of_size Gen.(1 -- 6) (int_bound 7))

let prop_estimate_at_least_busiest_nic =
  QCheck.Test.make ~count:200
    ~name:"redistribution estimate covers the busiest NIC's drain time"
    QCheck.(pair procs_list procs_list)
    (fun (s, r) ->
      QCheck.assume (s <> [] && r <> []);
      let sender = Procset.of_list s and receiver = Procset.of_list r in
      let bytes = 1e8 in
      let plan = Rats_redist.Redistribution.plan ~sender ~receiver ~bytes () in
      let est = Rats_redist.Redistribution.estimate flat8 plan in
      let load = Array.make 8 0. in
      List.iter
        (fun t ->
          if t.Rats_redist.Redistribution.src <> t.Rats_redist.Redistribution.dst
          then begin
            load.(t.Rats_redist.Redistribution.src) <-
              load.(t.Rats_redist.Redistribution.src) +. t.Rats_redist.Redistribution.bytes;
            load.(t.Rats_redist.Redistribution.dst) <-
              load.(t.Rats_redist.Redistribution.dst) +. t.Rats_redist.Redistribution.bytes
          end)
        plan;
      let busiest = Array.fold_left Float.max 0. load /. 1.25e8 in
      est >= busiest -. 1e-9)

(* --- End-to-end scheduling invariants -------------------------------------- *)

let config_gen =
  QCheck.(pair (int_range 0 1000) (int_range 8 25))

let prop_schedules_valid_for_all_strategies =
  (* Schedule.make re-validates every invariant (durations, precedence,
     processor ranges), so "it constructs" is a strong property. *)
  QCheck.Test.make ~count:25 ~name:"every strategy yields a valid schedule"
    config_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let problem = Core.Problem.make ~dag ~cluster:Cluster.chti in
      List.for_all
        (fun strategy ->
          let s = Core.Rats.schedule problem strategy in
          Core.Schedule.n_tasks s = Dag.n_tasks dag)
        [
          Core.Rats.Baseline;
          Core.Rats.Delta Core.Rats.naive_delta;
          Core.Rats.Timecost Core.Rats.naive_timecost;
        ])

let prop_simulation_dominates_compute_lower_bound =
  QCheck.Test.make ~count:20
    ~name:"simulated makespan covers the computation critical path" config_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let problem = Core.Problem.make ~dag ~cluster:Cluster.chti in
      let s = Core.Rats.schedule problem Core.Rats.Baseline in
      let alloc = Core.Schedule.allocation s in
      let bl =
        Dag.bottom_levels dag
          ~task_cost:(fun i -> Core.Problem.task_time problem i ~procs:alloc.(i))
          ~edge_cost:(fun _ _ _ -> 0.)
      in
      let lower = bl.(Core.Problem.entry problem) in
      (Core.Evaluate.run s).Core.Evaluate.makespan >= lower -. 1e-6)

let prop_work_conservation =
  QCheck.Test.make ~count:20
    ~name:"simulated busy time equals the schedule's work" config_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let problem = Core.Problem.make ~dag ~cluster:Cluster.chti in
      let s = Core.Rats.schedule problem (Core.Rats.Timecost Core.Rats.naive_timecost) in
      let r = Core.Evaluate.run s in
      let busy = ref 0. in
      Array.iteri
        (fun i start ->
          if not (Core.Problem.is_virtual problem i) then
            busy :=
              !busy
              +. (r.Core.Evaluate.finishes.(i) -. start)
                 *. float_of_int
                      (Procset.size (Core.Schedule.entry s i).Core.Schedule.procs))
        r.Core.Evaluate.starts;
      Float.abs (!busy -. Core.Schedule.total_work s)
      <= 1e-6 *. Float.max 1. (Core.Schedule.total_work s))

let prop_strategies_never_overflow_machine =
  QCheck.Test.make ~count:25 ~name:"no processor set exceeds the cluster"
    config_gen
    (fun (seed, n) ->
      let dag = random_dag seed n in
      let problem = Core.Problem.make ~dag ~cluster:Cluster.chti in
      let s = Core.Rats.schedule problem (Core.Rats.Delta { mindelta = -1.; maxdelta = 2. }) in
      Array.for_all
        (fun e ->
          Procset.size e.Core.Schedule.procs <= Core.Problem.n_procs problem)
        (Core.Schedule.entries s))

(* --- Replay on a shared engine ------------------------------------------- *)

let prop_start_matches_run_on_flat_grant =
  (* On a flat cluster every node pair crosses two identical private links,
     so replaying a k-processor schedule onto any k nodes of a larger
     engine, released at any date, is a relabeling plus a time shift. *)
  QCheck.Test.make ~count:20
    ~name:"grant and release date leave a flat-cluster replay unchanged"
    QCheck.(
      quad (int_range 0 1000) (int_range 8 25) (int_range 2 20)
        (float_range 0.5 100.))
    (fun (seed, n, k, release) ->
      let platform = Cluster.grillon in
      let share = Rats_server.Api.subcluster platform k in
      let problem = Core.Problem.make ~dag:(random_dag seed n) ~cluster:share in
      let s = Core.Rats.schedule problem (Core.Rats.Delta Core.Rats.naive_delta) in
      let offline = Core.Evaluate.run s in
      let nodes = Array.init (Cluster.n_procs platform) Fun.id in
      Rng.shuffle (Rng.create seed) nodes;
      let grant = Procset.of_array (Array.sub nodes 0 k) in
      QCheck.assume (not (Procset.equal grant (Procset.range 0 k)));
      let eng = Rats_sim.Engine.create platform in
      let shared = ref None in
      Rats_sim.Engine.at eng release (fun eng ->
          Core.Evaluate.start eng ~grant
            ~on_complete:(fun r -> shared := Some r)
            s);
      ignore (Rats_sim.Engine.run eng);
      match !shared with
      | None -> false
      | Some r ->
          let open Core.Evaluate in
          r.remote_bytes = offline.remote_bytes
          && r.local_bytes = offline.local_bytes
          && r.redistributions = offline.redistributions
          && r.avoided = offline.avoided
          && List.length r.spans = List.length offline.spans
          && Float.abs (r.makespan -. offline.makespan)
             <= 1e-9 *. offline.makespan)

let () =
  Alcotest.run "properties"
    [
      ( "dag",
        [
          qcheck prop_topo_respects_edges;
          qcheck prop_bottom_levels_decrease_along_edges;
          qcheck prop_top_plus_bottom_bounded_by_cp;
          qcheck prop_depths_bounded_by_levels;
        ] );
      ( "redistribution", [ qcheck prop_estimate_at_least_busiest_nic ] );
      ( "scheduling",
        [
          qcheck prop_schedules_valid_for_all_strategies;
          qcheck prop_simulation_dominates_compute_lower_bound;
          qcheck prop_work_conservation;
          qcheck prop_strategies_never_overflow_machine;
        ] );
      ("replay", [ qcheck prop_start_matches_run_on_flat_grant ]);
    ]
