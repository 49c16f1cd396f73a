(* Tests for the benchmark itself: metric naming, the tail-percentile rule,
   the JSON result line, agreement with BENCHMARK.json, the output checks
   (including the committed Figure 2 rows) and the timed planner hook. *)

open Perfbench
module Json = Rats_obs.Json
module Cluster = Rats_platform.Cluster
module Engine = Rats_server.Engine
module Api = Rats_server.Api

let check = Alcotest.check

(* Small enough for the tier-1 suite: two smoke configurations, 120 jobs. *)
let tiny = { Workloads.configs = Some 2; jobs = 120 }

let csv = "../bench_results/naive_grillon.csv"

let run ?(reference_csv = csv) ?(seed = 1) ~trace workload =
  snd
    (Workloads.run ~reference_csv ~scale:tiny ~workload ~seed ~seconds:0. ~trace
       ())

(* --- names --------------------------------------------------------------- *)

let test_names () =
  let names =
    Catalog.workloads
    @ List.map (fun m -> m.Catalog.name) (Catalog.end_to_end @ Catalog.per_layer)
  in
  List.iter
    (fun n -> check Alcotest.bool ("valid name " ^ n) true (Catalog.valid_name n))
    names;
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun m ->
      check Alcotest.bool ("valid unit " ^ m.Catalog.unit_) true
        (Catalog.valid_unit m.Catalog.unit_))
    (Catalog.end_to_end @ Catalog.per_layer);
  List.iter
    (fun bad -> check Alcotest.bool ("rejects " ^ bad) false (Catalog.valid_name bad))
    [ ""; "_lead"; "has space"; "colon:x"; String.make 65 'a' ]

(* --- percentiles ---------------------------------------------------------- *)

let test_tail_rule () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  check Alcotest.(option (float 0.)) "999 samples: p99 withheld" None
    (Quantile.tail ~p:0.99 (samples 999));
  check Alcotest.(option (float 0.)) "1000 samples: p99 = rank 990" (Some 990.)
    (Quantile.tail ~p:0.99 (samples 1000));
  check Alcotest.int "10 beyond p99 of 1000" 10 (Quantile.beyond ~p:0.99 1000);
  check Alcotest.(option (float 0.)) "99 samples: p90 withheld" None
    (Quantile.tail ~p:0.9 (samples 99));
  check Alcotest.(option (float 0.)) "100 samples: p90" (Some 90.)
    (Quantile.tail ~p:0.9 (samples 100));
  check (Alcotest.float 0.) "median even" 2.5 (Quantile.median [| 4.; 1.; 3.; 2. |])

(* --- the result line -------------------------------------------------------- *)

let metric_names json =
  match Json.member "metrics" json with
  | Some (Json.Obj kvs) -> List.map fst kvs
  | _ -> Alcotest.fail "metrics object missing"

let check_result ~trace workload (o : Workloads.outcome) =
  let line = Json.to_string (Report.result ~trace o) in
  let json =
    match Json.parse line with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: result does not parse: %s" workload e
  in
  (match json with
  | Json.Obj kvs ->
      check
        Alcotest.(list string)
        "top-level keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "not an object");
  check Alcotest.(option bool) (workload ^ " correct") (Some true)
    (Option.bind (Json.member "correct" json) (function
      | Json.Bool b -> Some b
      | _ -> None));
  check Alcotest.(option int) (workload ^ " failed") (Some 0)
    (Option.bind (Json.member "failed" json) Json.to_int);
  let catalog = if trace then Catalog.per_layer else Catalog.end_to_end in
  check
    Alcotest.(list string)
    (workload ^ " metric names")
    (List.map (fun m -> m.Catalog.name) catalog)
    (metric_names json);
  List.iter
    (fun (m : Catalog.metric) ->
      let entry = Option.get (Json.member "metrics" json) in
      let v = Option.get (Json.member m.Catalog.name entry) in
      check Alcotest.(option string) (m.Catalog.name ^ " unit") (Some m.Catalog.unit_)
        (Option.bind (Json.member "unit" v) Json.to_str);
      let value = Option.bind (Json.member "value" v) Json.to_float in
      if not trace then
        check Alcotest.bool
          (Printf.sprintf "%s/%s is positive" workload m.Catalog.name)
          true
          (match value with Some x -> x > 0. | None -> false))
    catalog

(* A traced run carries both metric sets, so one run checks both lines. *)
let test_results () =
  List.iter
    (fun w ->
      let o = run ~trace:true w in
      check_result ~trace:false w o;
      check_result ~trace:true w o)
    Catalog.workloads

(* --- BENCHMARK.json --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_benchmark_json () =
  let json =
    match Json.parse (read_file "../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let list key = Option.get (Option.bind (Json.member key json) Json.to_list) in
  let str key j = Option.get (Option.bind (Json.member key j) Json.to_str) in
  check
    Alcotest.(list string)
    "workloads" Catalog.workloads
    (List.map (str "name") (list "workloads"));
  let metrics key catalog =
    check
      Alcotest.(list (triple string string string))
      key
      (List.map
         (fun m ->
           (m.Catalog.name, m.Catalog.unit_, Catalog.better_name m.Catalog.better))
         catalog)
      (List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (list key))
  in
  metrics "end_to_end" Catalog.end_to_end;
  metrics "per_layer" Catalog.per_layer;
  let bounds =
    List.map
      (fun j ->
        (str "name" j, Option.get (Option.bind (Json.member "bound" j) Json.to_float)))
      (list "end_to_end")
  in
  List.iter
    (fun (n, b) ->
      check Alcotest.bool (n ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25))
    bounds;
  let setup = List.assoc "setup_s" bounds in
  check Alcotest.bool "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= setup) bounds)

(* --- output checks ------------------------------------------------------------ *)

let test_reference_rows () =
  let o = run ~seed:5 ~trace:false "sweep_grillon" in
  check Alcotest.int "reproduces the committed rows" 0 o.Workloads.failed;
  check Alcotest.bool "rows were checked" true
    (List.exists
       (fun n -> String.length n > 4 && String.sub n 0 4 = "rows")
       o.Workloads.notes);
  (* A tampered reference must be caught. *)
  let tampered = Filename.temp_file "naive_grillon" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tampered)
    (fun () ->
      let lines = String.split_on_char '\n' (read_file csv) in
      let oc = open_out tampered in
      List.iteri
        (fun i l ->
          (* Row 1 is the first slice configuration; bump its last digit. *)
          let l =
            if i = 1 then
              String.sub l 0 (String.length l - 1)
              ^ if l.[String.length l - 1] = '9' then "0" else "9"
            else l
          in
          if l <> "" then output_string oc (l ^ "\n"))
        lines;
      close_out oc;
      let o = run ~reference_csv:tampered ~trace:false "sweep_grillon" in
      (* One of the two configurations fails, on every pass. *)
      check Alcotest.int "tampered row fails" o.Workloads.attempted
        (2 * o.Workloads.failed))

(* The timed planner hook must not change what the engine does. *)
let test_planner_equivalence () =
  let cluster = Cluster.grillon in
  let profile =
    match Rats_workload.Profile.of_string ~cluster "mixed:jobs=60,seed=3" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let trace = Rats_workload.Trace.compile profile in
  let log config =
    let engine = Engine.create config in
    Array.iter
      (fun (j : Rats_workload.Trace.job) ->
        ignore
          (Engine.submit engine ~at:j.Rats_workload.Trace.at
             (Rats_server.Load.request_of_job j)))
      trace;
    ignore (Engine.drain engine : float);
    List.map
      (fun ev -> Json.to_string (Api.stamped_to_json ev))
      (Engine.events engine)
  in
  let default =
    {
      (Engine.default_config cluster) with
      Engine.policy = Workloads.policy;
      jobs = Some 1;
    }
  in
  let expected = log default in
  (* Untraced the hook calls [Api.plan]; traced, its split composition. *)
  List.iter
    (fun traced ->
      let probe = Probe.create () in
      Probe.set_enabled probe traced;
      check
        Alcotest.(list string)
        (Printf.sprintf "same event log (traced %b)" traced)
        expected
        (log (Workloads.service_config probe cluster)))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "catalog",
        [
          Alcotest.test_case "metric names and units" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ("quantile", [ Alcotest.test_case "tail rule" `Quick test_tail_rule ]);
      ( "runs",
        [
          Alcotest.test_case "result lines" `Quick test_results;
          Alcotest.test_case "committed Figure 2 rows" `Quick test_reference_rows;
          Alcotest.test_case "timed planner = Api.plan" `Quick
            test_planner_equivalence;
        ] );
    ]
