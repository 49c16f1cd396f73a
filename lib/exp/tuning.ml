module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Core = Rats_core
module Stats = Rats_util.Stats
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec

let mindelta_values = [ 0.; -0.25; -0.5; -0.75 ]
let maxdelta_values = [ 0.; 0.25; 0.5; 0.75; 1. ]
let minrho_values = [ 0.2; 0.4; 0.5; 0.6; 0.8; 1. ]

type prepared = {
  problem : Core.Problem.t;
  alloc : int array;
  hcpa_makespan : float;
}

(* A failed unit drops out of the average (counted and reported through
   [exec.stats], never silently): sweeps degrade gracefully instead of
   losing hours of grid replays to one bad configuration. *)
let prepare ?(exec = Exec.make ()) cluster configs =
  Exec.map exec
    ~name:(fun c ->
      "tuning.prepare/" ^ cluster.Cluster.name ^ "/" ^ Suite.name c)
    ~f:(fun config ->
      let dag = Suite.generate config in
      let problem = Core.Problem.make ~dag ~cluster in
      let alloc = Core.Hcpa.allocate problem in
      let hcpa =
        Runner.strategy_measurement ~alloc problem Core.Rats.Baseline
      in
      { problem; alloc; hcpa_makespan = hcpa.Runner.makespan })
    configs
  |> Exec.oks

let first_samples ~cap configs =
  let firsts = List.filter (fun c -> c.Suite.sample = 0) configs in
  let n = List.length firsts in
  if n <= cap then firsts
  else
    (* Even thinning keeps the whole shape spectrum represented. *)
    List.filteri (fun i _ -> i * cap / n <> (i - 1) * cap / n) firsts

let tuning_configs scale kind =
  first_samples ~cap:24
    (List.filter (fun c -> Suite.kind c = kind) (Suite.all scale))

let average_relative ?(map = List.map) prepared select =
  map
    (fun p ->
      let m =
        Runner.strategy_measurement ~alloc:p.alloc p.problem (select p.problem)
      in
      m.Runner.makespan /. p.hcpa_makespan)
    prepared
  |> Array.of_list |> Stats.mean

type delta_point = {
  mindelta : float;
  maxdelta : float;
  avg_relative_makespan : float;
}

(* The sweeps parallelize over grid points — each point replays every
   prepared configuration, so points are the coarsest independent unit. A
   failed point is dropped; the figure printers render missing grid points
   as "-". *)
let sweep ~exec ~name ~strategy ~point prepared grid =
  Exec.map exec ~name
    ~f:(fun x ->
      point x (average_relative prepared (fun _ -> strategy x)))
    grid
  |> Exec.oks

let sweep_delta ?(exec = Exec.make ()) prepared =
  List.concat_map
    (fun mindelta ->
      List.map (fun maxdelta -> (mindelta, maxdelta)) maxdelta_values)
    mindelta_values
  |> sweep ~exec prepared
       ~name:(fun (mindelta, maxdelta) ->
         Printf.sprintf "tuning.sweep_delta/min=%g,max=%g" mindelta maxdelta)
       ~strategy:(fun (mindelta, maxdelta) ->
         Core.Rats.Delta { mindelta; maxdelta })
       ~point:(fun (mindelta, maxdelta) avg_relative_makespan ->
         { mindelta; maxdelta; avg_relative_makespan })

type timecost_point = {
  packing : bool;
  minrho : float;
  avg_relative_makespan : float;
}

let sweep_timecost ?(exec = Exec.make ()) prepared =
  List.concat_map
    (fun packing -> List.map (fun minrho -> (packing, minrho)) minrho_values)
    [ false; true ]
  |> sweep ~exec prepared
       ~name:(fun (packing, minrho) ->
         Printf.sprintf "tuning.sweep_timecost/packing=%b,rho=%g" packing
           minrho)
       ~strategy:(fun (packing, minrho) ->
         Core.Rats.Timecost { minrho; packing })
       ~point:(fun (packing, minrho) avg_relative_makespan ->
         { packing; minrho; avg_relative_makespan })

(* Whole-sweep cache entries: a (cluster, configuration set) sweep is one
   entry, so a warm Figure 4/5 regeneration skips prepare and every grid
   replay. A key covers everything a grid aggregate depends on: the
   cluster, the configuration set and all three grids. *)
let grid_key label cluster configs =
  Cache.key
    ((label :: Cluster.signature cluster
     :: List.map
          (fun values ->
            String.concat "," (List.map (Printf.sprintf "%h") values))
          [ mindelta_values; maxdelta_values; minrho_values ])
    @ List.map Suite.name configs)

let sweep_delta_for ?(exec = Exec.make ()) cluster configs =
  Exec.memo exec
    ~key:(grid_key "tuning.sweep_delta" cluster configs)
    ~to_rows:
      (List.map (fun (p : delta_point) ->
           ("", [ p.mindelta; p.maxdelta; p.avg_relative_makespan ])))
    ~of_rows:
      (Cache.map_rows (function
        | _, [ mindelta; maxdelta; avg_relative_makespan ] ->
            Some { mindelta; maxdelta; avg_relative_makespan }
        | _ -> None))
    (fun () -> sweep_delta ~exec (prepare ~exec cluster configs))

let sweep_timecost_for ?(exec = Exec.make ()) cluster configs =
  Exec.memo exec
    ~key:(grid_key "tuning.sweep_timecost" cluster configs)
    ~to_rows:
      (List.map (fun (p : timecost_point) ->
           (string_of_bool p.packing, [ p.minrho; p.avg_relative_makespan ])))
    ~of_rows:
      (Cache.map_rows (function
        | packing, [ minrho; avg_relative_makespan ] ->
            Option.map
              (fun packing -> { packing; minrho; avg_relative_makespan })
              (bool_of_string_opt packing)
        | _ -> None))
    (fun () -> sweep_timecost ~exec (prepare ~exec cluster configs))

type tuned = { delta : Core.Rats.delta_params; minrho : float }

let best delta_points timecost_points =
  let best_delta =
    List.fold_left
      (fun (acc : delta_point option) (p : delta_point) ->
        match acc with
        | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
        | _ -> Some p)
      None delta_points
  in
  let best_tc =
    List.fold_left
      (fun (acc : timecost_point option) p ->
        if not p.packing then acc
        else
          match acc with
          | Some b when b.avg_relative_makespan <= p.avg_relative_makespan -> acc
          | _ -> Some p)
      None timecost_points
  in
  match (best_delta, best_tc) with
  | Some d, Some t ->
      {
        delta = { Core.Rats.mindelta = d.mindelta; maxdelta = d.maxdelta };
        minrho = t.minrho;
      }
  | _ -> invalid_arg "Tuning.best: empty sweep"

let kinds : Suite.app_kind list = [ `Fft; `Strassen; `Layered; `Irregular ]

(* One cache entry per (cluster, kind) cell of Table IV; a hit skips the
   whole prepare + sweep pipeline for that cell. *)
let tune_cell ?(exec = Exec.make ()) cluster kind configs =
  Exec.memo exec
    ~key:(grid_key ("tuning.table4/" ^ Suite.kind_name kind) cluster configs)
    ~to_rows:(fun t ->
      [
        ("delta", [ t.delta.Core.Rats.mindelta; t.delta.Core.Rats.maxdelta ]);
        ("minrho", [ t.minrho ]);
      ])
    ~of_rows:(function
      | [ ("delta", [ mindelta; maxdelta ]); ("minrho", [ minrho ]) ] ->
          Some { delta = { Core.Rats.mindelta; maxdelta }; minrho }
      | _ -> None)
    (fun () ->
      let prepared = prepare ~exec cluster configs in
      best (sweep_delta ~exec prepared) (sweep_timecost ~exec prepared))

let table4 ?exec scale =
  List.map
    (fun cluster ->
      let per_kind =
        List.map
          (fun kind ->
            (kind, tune_cell ?exec cluster kind (tuning_configs scale kind)))
          kinds
      in
      (cluster.Cluster.name, per_kind))
    Cluster.presets

let tuned_for table ~cluster ~kind = List.assoc kind (List.assoc cluster table)
