(* Tests for rats_sim: Max-Min fairness solver and discrete-event engine. *)

module Maxmin = Rats_sim.Maxmin
module Engine = Rats_sim.Engine
module Cluster = Rats_platform.Cluster
module Topology = Rats_platform.Topology
module Link = Rats_platform.Link

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let checkf_rel msg expected actual =
  Alcotest.check (Alcotest.float (1e-6 *. Float.max 1. (Float.abs expected)))
    msg expected actual
let qcheck t = Rats_test_support.Seeded.to_alcotest t

let flow links rate_cap = { Maxmin.links = Array.of_list links; rate_cap }

let solve ?(cap = 100.) n_links flows =
  Maxmin.solve ~n_links ~capacity:(fun _ -> cap) (Array.of_list flows)

(* --- Maxmin -------------------------------------------------------------- *)

let test_maxmin_single () =
  let rates = solve 1 [ flow [ 0 ] infinity ] in
  checkf "full capacity" 100. rates.(0)

let test_maxmin_two_share () =
  let rates = solve 1 [ flow [ 0 ] infinity; flow [ 0 ] infinity ] in
  checkf "half each (1)" 50. rates.(0);
  checkf "half each (2)" 50. rates.(1)

let test_maxmin_cap_binds () =
  let rates = solve 1 [ flow [ 0 ] 10.; flow [ 0 ] infinity ] in
  checkf "capped flow" 10. rates.(0);
  checkf "rest to the other" 90. rates.(1)

let test_maxmin_bottleneck_chain () =
  (* Flow A crosses links 0,1; flow B crosses link 0; flow C crosses link 1.
     Classic max-min solution with capacity 100: A=50, B=50, C=50. *)
  let rates =
    solve 2 [ flow [ 0; 1 ] infinity; flow [ 0 ] infinity; flow [ 1 ] infinity ]
  in
  checkf "A" 50. rates.(0);
  checkf "B" 50. rates.(1);
  checkf "C" 50. rates.(2)

let test_maxmin_asymmetric_bottleneck () =
  (* Link 0 capacity 100 with 3 flows; link 1 capacity 100 with 1 of them.
     All flows on link 0 get 100/3; the long flow is limited by link 0. *)
  let rates =
    solve 2
      [ flow [ 0; 1 ] infinity; flow [ 0 ] infinity; flow [ 0 ] infinity ]
  in
  checkf_rel "long flow" (100. /. 3.) rates.(0);
  checkf_rel "short 1" (100. /. 3.) rates.(1);
  checkf_rel "short 2" (100. /. 3.) rates.(2)

let test_maxmin_progressive_refill () =
  (* After the bottleneck freezes, remaining flows keep filling: link 0 has
     flows A,B; link 1 has flow B only... use capacities via distinct links:
     link0 cap 100 shared by A,B; link1 cap 30 used by A alone: A limited to
     30, then B gets 70. *)
  let capacity = function 0 -> 100. | _ -> 30. in
  let rates =
    Maxmin.solve ~n_links:2 ~capacity
      [| flow [ 0; 1 ] infinity; flow [ 0 ] infinity |]
  in
  checkf "A at small link" 30. rates.(0);
  checkf "B takes the rest" 70. rates.(1)

let test_maxmin_unconstrained_flow () =
  let rates = solve 1 [ flow [] infinity ] in
  checkf "infinite" infinity rates.(0)

let test_maxmin_empty_links_with_cap () =
  let rates = solve 1 [ flow [] 42. ] in
  checkf "cap" 42. rates.(0)

let test_maxmin_validation () =
  Alcotest.check_raises "bad link" (Invalid_argument "Maxmin.solve: bad link")
    (fun () -> ignore (solve 1 [ flow [ 3 ] infinity ]));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Maxmin.solve: non-positive cap") (fun () ->
      ignore (solve 1 [ flow [ 0 ] 0. ]))

let test_maxmin_utilization () =
  let flows = [| flow [ 0 ] infinity; flow [ 0 ] infinity |] in
  let rates = Maxmin.solve ~n_links:1 ~capacity:(fun _ -> 100.) flows in
  checkf "sums to capacity" 100. (Maxmin.utilization ~n_links:1 flows ~rates 0)

(* qcheck: feasibility (no link over capacity) and saturation (every flow is
   blocked by a saturated link or its own cap) — the definition of Max-Min
   fairness. *)
let random_flows =
  QCheck.(
    list_of_size Gen.(1 -- 30)
      (pair (list_of_size Gen.(0 -- 4) (int_bound 9)) (float_range 1. 1000.)))

let qcheck_maxmin_feasible =
  QCheck.Test.make ~count:200 ~name:"maxmin respects link capacities"
    random_flows
    (fun specs ->
      let flows =
        Array.of_list
          (List.map (fun (ls, cap) -> flow (List.sort_uniq compare ls) cap) specs)
      in
      let rates = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      let ok = ref true in
      for l = 0 to 9 do
        if Maxmin.utilization ~n_links:10 flows ~rates l > 50. *. (1. +. 1e-6)
        then ok := false
      done;
      !ok)

let qcheck_maxmin_saturated =
  QCheck.Test.make ~count:200 ~name:"every flow hits a bottleneck or its cap"
    random_flows
    (fun specs ->
      let flows =
        Array.of_list
          (List.map (fun (ls, cap) -> flow (List.sort_uniq compare ls) cap) specs)
      in
      let rates = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      let saturated l =
        Maxmin.utilization ~n_links:10 flows ~rates l >= 50. *. (1. -. 1e-5)
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun i f ->
             let at_cap = rates.(i) >= f.Maxmin.rate_cap *. (1. -. 1e-5) in
             at_cap || Array.exists saturated f.Maxmin.links)
           flows))

(* --- Incremental Maxmin --------------------------------------------------- *)

module Inc = Maxmin.Incremental

let inc_create () = Inc.create ~n_links:10 ~capacity:(fun _ -> 50.) ()

(* Random op sequences over the incremental solver. [`Remove k] removes the
   [k mod alive]-th live flow; [`Refresh] forces a mid-sequence solve, so
   later refreshes start from a solved state. *)
let ops_gen =
  QCheck.Gen.(
    list_size (1 -- 60)
      (frequency
         [
           ( 3,
             map
               (fun (ls, cap) -> `Add (List.sort_uniq compare ls, cap))
               (pair (list_size (0 -- 4) (int_bound 9)) (float_range 1. 1000.))
           );
           (2, map (fun k -> `Remove k) (int_bound 100));
           (1, return `Refresh);
         ]))

let pp_op = function
  | `Add (ls, cap) ->
      Printf.sprintf "add[%s]@%g" (String.concat ";" (List.map string_of_int ls)) cap
  | `Remove k -> Printf.sprintf "rm%d" k
  | `Refresh -> "refresh"

let random_ops =
  QCheck.make ops_gen ~print:(fun ops -> String.concat " " (List.map pp_op ops))

(* Replay [ops] on [inc]; returns the live (handle, flow) list, newest
   first. A final refresh is always applied. *)
let run_ops inc ops =
  let alive = ref [] in
  List.iter
    (fun op ->
      match op with
      | `Add (ls, cap) ->
          let links = Array.of_list ls in
          let h = Inc.add inc ~links ~rate_cap:cap in
          alive := (h, { Maxmin.links; rate_cap = cap }) :: !alive
      | `Remove k -> (
          match !alive with
          | [] -> ()
          | l ->
              let k = k mod List.length l in
              Inc.remove inc (fst (List.nth l k));
              alive := List.filteri (fun i _ -> i <> k) l)
      | `Refresh -> Inc.refresh inc)
    ops;
  Inc.refresh inc;
  !alive

let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b

let qcheck_inc_matches_reference =
  QCheck.Test.make ~count:300 ~name:"incremental matches reference oracle"
    random_ops
    (fun ops ->
      let inc = inc_create () in
      let alive = run_ops inc ops in
      let flows = Array.of_list (List.map snd alive) in
      let expected = Maxmin.solve ~n_links:10 ~capacity:(fun _ -> 50.) flows in
      List.for_all2
        (fun (h, _) exp ->
          let got = Inc.rate inc h in
          if exp = infinity then got = infinity
          else Float.abs (got -. exp) <= 1e-7 *. Float.max 1. (Float.abs exp))
        alive (Array.to_list expected))

let qcheck_inc_path_independent =
  QCheck.Test.make ~count:300
    ~name:"incremental rates are a pure function of the flow set" random_ops
    (fun ops ->
      let inc = inc_create () in
      let alive = run_ops inc ops in
      (* Re-add the surviving flows to a fresh solver: bit-identical rates
         must come out, however the first solver got there. *)
      let fresh = inc_create () in
      let readded =
        List.map
          (fun (h, f) ->
            (h, Inc.add fresh ~links:f.Maxmin.links ~rate_cap:f.Maxmin.rate_cap))
          alive
      in
      Inc.refresh fresh;
      List.for_all
        (fun (h, h') -> same_float (Inc.rate inc h) (Inc.rate fresh h'))
        readded)

(* The max-min fairness certificate, checked on the solver's own output
   with no reference solver involved: rates are feasible, and every linked
   flow is at its cap or crosses a saturated link on which no flow gets
   more than it does. A linkless flow gets exactly its cap. *)
let qcheck_inc_fairness_certificate =
  QCheck.Test.make ~count:300 ~name:"incremental rates satisfy max-min fairness"
    random_ops
    (fun ops ->
      let inc = inc_create () in
      let alive = run_ops inc ops in
      let rate (h, _) = Inc.rate inc h in
      let load = Array.make 10 0. and top = Array.make 10 0. in
      List.iter
        (fun ((_, f) as x) ->
          Array.iter
            (fun l ->
              load.(l) <- load.(l) +. rate x;
              top.(l) <- Float.max top.(l) (rate x))
            f.Maxmin.links)
        alive;
      let tol = 1e-6 in
      Array.for_all (fun u -> u <= 50. *. (1. +. tol)) load
      && List.for_all
           (fun ((_, f) as x) ->
             let r = rate x and cap = f.Maxmin.rate_cap in
             if Array.length f.Maxmin.links = 0 then r = cap
             else
               (cap < infinity && r >= cap *. (1. -. tol))
               || Array.exists
                    (fun l ->
                      load.(l) >= 50. *. (1. -. tol)
                      && r >= top.(l) *. (1. -. tol))
                    f.Maxmin.links)
           alive)

(* Minor words allocated by one add + remove + refresh cycle on a warmed-up
   solver already holding [n] flows. *)
let cycle_words n =
  let inc = Inc.create ~n_links:10 ~capacity:(fun l -> 40. +. float_of_int l) () in
  for i = 0 to n - 1 do
    let links = [| i mod 10; (i * 7 + 3) mod 10 |] in
    let rate_cap = if i mod 3 = 0 then infinity else 1. +. float_of_int (i mod 17) in
    ignore (Inc.add inc ~links ~rate_cap)
  done;
  let links = [| 2; 5 |] in
  let cycle () =
    let h = Inc.add inc ~links ~rate_cap:3.5 in
    Inc.refresh inc;
    Inc.remove inc h;
    Inc.refresh inc
  in
  for _ = 1 to 3 do
    cycle ()
  done;
  let before = Gc.minor_words () in
  cycle ();
  Gc.minor_words () -. before

let test_inc_refresh_allocation_free () =
  let small = cycle_words 10 and large = cycle_words 400 in
  if Float.abs (large -. small) > 8. then
    Alcotest.failf "cycle allocates %.0f words at 400 flows vs %.0f at 10"
      large small

let test_inc_basics () =
  let inc = inc_create () in
  let a = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  Inc.refresh inc;
  checkf "full capacity" 50. (Inc.rate inc a);
  let b = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  Inc.refresh inc;
  checkf "half (a)" 25. (Inc.rate inc a);
  checkf "half (b)" 25. (Inc.rate inc b);
  Inc.remove inc b;
  Inc.refresh inc;
  checkf "back to full" 50. (Inc.rate inc a);
  Alcotest.(check int) "one live flow" 1 (Inc.n_flows inc)

let test_inc_untouched_component_stable () =
  (* Flows on disjoint links: adding to one component must not disturb the
     other (re-solving it yields bit-identical rates). *)
  let inc = inc_create () in
  let a = Inc.add inc ~links:[| 0 |] ~rate_cap:infinity in
  let b = Inc.add inc ~links:[| 1 |] ~rate_cap:7. in
  Inc.refresh inc;
  let ra = Inc.rate inc a and rb = Inc.rate inc b in
  let c = Inc.add inc ~links:[| 2; 3 |] ~rate_cap:infinity in
  Inc.refresh inc;
  Alcotest.(check bool) "a untouched" true (same_float ra (Inc.rate inc a));
  Alcotest.(check bool) "b untouched" true (same_float rb (Inc.rate inc b));
  checkf "c solved" 50. (Inc.rate inc c)

let test_inc_linkless () =
  let inc = inc_create () in
  let free = Inc.add inc ~links:[||] ~rate_cap:infinity in
  let capped = Inc.add inc ~links:[||] ~rate_cap:42. in
  (* Linkless rates are final immediately, no refresh needed. *)
  checkf "infinite" infinity (Inc.rate inc free);
  checkf "cap, exactly" 42. (Inc.rate inc capped)

let test_inc_validation () =
  let inc = inc_create () in
  Alcotest.check_raises "bad link"
    (Invalid_argument "Maxmin.Incremental.add: bad link") (fun () ->
      ignore (Inc.add inc ~links:[| 10 |] ~rate_cap:infinity));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Maxmin.Incremental.add: non-positive cap") (fun () ->
      ignore (Inc.add inc ~links:[| 0 |] ~rate_cap:0.));
  let h = Inc.add inc ~links:[| 0 |] ~rate_cap:1. in
  Inc.remove inc h;
  Alcotest.check_raises "dead handle"
    (Invalid_argument "Maxmin.Incremental.remove: dead handle") (fun () ->
      Inc.remove inc h)

(* --- Engine -------------------------------------------------------------- *)

let flat4 =
  Cluster.make ~name:"flat4" ~topology:(Topology.Flat 4) ~speed_gflops:1. ()

let test_engine_single_flow_timing () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  (* one-way latency 200us + 1.25e8 bytes at 125MB/s = 1s *)
  checkf "latency + transfer" 1.0002 !finish

let test_engine_two_flows_share_nic () =
  let eng = Engine.create flat4 in
  let finishes = ref [] in
  for dst = 1 to 2 do
    Engine.start_flow eng ~src:0 ~dst ~bytes:1.25e8
      ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes)
  done;
  ignore (Engine.run eng);
  (* Sender NIC shared: both flows at 62.5MB/s -> 2s + latency. *)
  List.iter (fun f -> checkf "shared bandwidth" 2.0002 f) !finishes

let test_engine_disjoint_flows_full_speed () =
  let eng = Engine.create flat4 in
  let finishes = ref [] in
  List.iter
    (fun (src, dst) ->
      Engine.start_flow eng ~src ~dst ~bytes:1.25e8
        ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes))
    [ (0, 1); (2, 3) ];
  ignore (Engine.run eng);
  List.iter (fun f -> checkf "no sharing" 1.0002 f) !finishes

let test_engine_self_flow_instant () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:2 ~dst:2 ~bytes:1e12
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  checkf "free local copy" 0. !finish

let test_engine_zero_bytes_instant () =
  let eng = Engine.create flat4 in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:0.
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  checkf "empty payload" 0. !finish

let test_engine_timers () =
  let eng = Engine.create flat4 in
  let log = ref [] in
  Engine.at eng 2. (fun _ -> log := 2 :: !log);
  Engine.at eng 1. (fun _ -> log := 1 :: !log);
  Engine.after eng 3. (fun _ -> log := 3 :: !log);
  let final = Engine.run eng in
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  checkf "final time" 3. final

let test_engine_same_time_fifo () =
  let eng = Engine.create flat4 in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.at eng 1. (fun _ -> log := i :: !log)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo at equal dates" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_past_event_rejected () =
  let eng = Engine.create flat4 in
  Engine.at eng 1. (fun eng ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past")
        (fun () -> Engine.at eng 0.5 (fun _ -> ())));
  ignore (Engine.run eng)

let test_engine_run_until () =
  let eng = Engine.create flat4 in
  let fired = ref false in
  Engine.at eng 5. (fun _ -> fired := true);
  Engine.run_until eng 3.;
  checkf "clock advanced" 3. (Engine.now eng);
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run_until eng 6.;
  Alcotest.(check bool) "fired" true !fired

let test_engine_dynamic_rate_change () =
  (* Second flow arrives halfway through the first: the first transfers
     0.5s at full rate, then shares. 1.25e8 bytes total: 0.5s x 125MB/s =
     62.5MB done; remaining 62.5MB at 62.5MB/s = 1s more. *)
  let eng = Engine.create flat4 in
  let f1 = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8
    ~on_complete:(fun eng -> f1 := Engine.now eng);
  Engine.at eng 0.5002 (fun eng ->
      Engine.start_flow eng ~src:0 ~dst:2 ~bytes:1e9 ~on_complete:(fun _ -> ()));
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-3)) "slowed by the newcomer" 1.5004 !f1

let test_engine_empirical_bandwidth () =
  (* A tiny TCP window caps the end-to-end rate below the link bandwidth. *)
  let tiny =
    Cluster.make ~name:"tiny" ~topology:(Topology.Flat 2) ~speed_gflops:1.
      ~tcp_wmax:12500. ()
  in
  (* RTT = 2 x 200us = 400us -> cap = 12500/4e-4 = 31.25 MB/s. *)
  let eng = Engine.create tiny in
  let finish = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:3.125e7
    ~on_complete:(fun eng -> finish := Engine.now eng);
  ignore (Engine.run eng);
  Alcotest.(check (float 1e-3)) "window-capped transfer" 1.0002 !finish

let test_engine_determinism () =
  let run () =
    let eng = Engine.create flat4 in
    let acc = ref [] in
    List.iter
      (fun (s, d, b) ->
        Engine.start_flow eng ~src:s ~dst:d ~bytes:b
          ~on_complete:(fun eng -> acc := Engine.now eng :: !acc))
      [ (0, 1, 1e8); (1, 2, 2e8); (2, 3, 5e7); (0, 2, 1e8); (3, 0, 3e8) ];
    ignore (Engine.run eng);
    !acc
  in
  Alcotest.(check (list (float 0.))) "identical runs" (run ()) (run ())

let test_engine_cabinet_contention () =
  (* Two flows between different cabinets share the uplinks. *)
  let c =
    Cluster.make ~name:"cab"
      ~topology:(Topology.Cabinets { cabinets = 2; per_cabinet = 2 })
      ~speed_gflops:1. ()
  in
  let eng = Engine.create c in
  let finishes = ref [] in
  List.iter
    (fun (s, d) ->
      Engine.start_flow eng ~src:s ~dst:d ~bytes:1.25e8
        ~on_complete:(fun eng -> finishes := Engine.now eng :: !finishes))
    [ (0, 2); (1, 3) ];
  ignore (Engine.run eng);
  (* Both cross uplinks 4 and 5: 62.5MB/s each; 4-hop latency 400us. *)
  List.iter (fun f -> Alcotest.(check (float 1e-3)) "uplink shared" 2.0004 f)
    !finishes


let test_engine_same_date_completions_reverse () =
  (* Three equal transfers, each sharing a node link with the third: all
     run at 62.5 MB/s and finish at the same date. Their callbacks run
     newest activation first. *)
  let eng = Engine.create flat4 in
  let order = ref [] in
  List.iteri
    (fun k (src, dst) ->
      Engine.start_flow eng ~src ~dst ~bytes:1.25e8 ~on_complete:(fun eng ->
          order := (k, Engine.now eng) :: !order))
    [ (0, 1); (2, 3); (1, 2) ];
  ignore (Engine.run eng);
  let order = List.rev !order in
  Alcotest.(check (list int)) "reverse activation order" [ 2; 1; 0 ]
    (List.map fst order);
  List.iter (fun (_, d) -> checkf "same date" 2.0002 d) order

let test_engine_remaining_survives_compaction () =
  (* A and B share node 0's NIC at 62.5 MB/s each. A, activated first,
     finishes after 0.2 s; B has then moved 1.25e7 of its 1.25e8 bytes and
     drains the other 1.125e8 alone at 125 MB/s in 0.9 s. *)
  let eng = Engine.create flat4 in
  let a = ref nan and b = ref nan in
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e7 ~on_complete:(fun eng ->
      a := Engine.now eng);
  Engine.start_flow eng ~src:0 ~dst:2 ~bytes:1.25e8 ~on_complete:(fun eng ->
      b := Engine.now eng);
  Engine.run_until eng 0.5;
  checkf "A done" 0.2002 !a;
  Alcotest.(check int) "B still active" 1 (Engine.active_flows eng);
  ignore (Engine.run eng);
  checkf "B carries its remainder" 1.1002 !b

(* --- Engine stress and property tests -------------------------------------- *)

let random_flow_set seed n =
  let rng = Rats_util.Rng.create seed in
  List.init n (fun _ ->
      let src = Rats_util.Rng.int rng 4 in
      let dst = (src + 1 + Rats_util.Rng.int rng 3) mod 4 in
      let bytes = Rats_util.Rng.uniform rng 1e6 1e8 in
      (src, dst, bytes))

let test_engine_mass_flows () =
  let eng = Engine.create flat4 in
  let flows = random_flow_set 99 500 in
  let completed = ref 0 in
  List.iter
    (fun (src, dst, bytes) ->
      Engine.start_flow eng ~src ~dst ~bytes
        ~on_complete:(fun _ -> incr completed))
    flows;
  let final = Engine.run eng in
  Alcotest.(check int) "all flows completed" 500 !completed;
  (* Aggregate bound: the busiest NIC must drain all its bytes at link rate. *)
  let load = Array.make 4 0. in
  List.iter
    (fun (src, dst, bytes) ->
      load.(src) <- load.(src) +. bytes;
      load.(dst) <- load.(dst) +. bytes)
    flows;
  let bound = Array.fold_left Float.max 0. load /. 1.25e8 in
  Alcotest.(check bool) "final time >= busiest NIC drain" true
    (final >= bound -. 1e-6);
  (* And it cannot be slower than fully serializing everything. *)
  let serial =
    List.fold_left (fun acc (_, _, b) -> acc +. (b /. 1.25e8) +. 2e-4) 0. flows
  in
  Alcotest.(check bool) "no slower than serial" true (final <= serial +. 1e-6)

let qcheck_engine_flow_lower_bound =
  QCheck.Test.make ~count:50
    ~name:"every flow takes at least its isolated transfer time"
    QCheck.(pair (int_range 0 10000) (int_range 1 40))
    (fun (seed, n) ->
      let eng = Engine.create flat4 in
      let finishes = Hashtbl.create 16 in
      List.iteri
        (fun i (src, dst, bytes) ->
          Engine.start_flow eng ~src ~dst ~bytes ~on_complete:(fun e ->
              Hashtbl.replace finishes i (Engine.now e)))
        (random_flow_set seed n);
      ignore (Engine.run eng);
      let ok = ref true in
      List.iteri
        (fun i (_, _, bytes) ->
          let isolated = 2e-4 +. (bytes /. 1.25e8) in
          match Hashtbl.find_opt finishes i with
          | Some f -> if f < isolated -. 1e-6 then ok := false
          | None -> ok := false)
        (random_flow_set seed n);
      !ok)

let test_engine_run_until_equivalence () =
  (* Stepping the clock in small increments must not change any completion
     date compared to one uninterrupted run. *)
  let run_with_steps step =
    let eng = Engine.create flat4 in
    let finishes = ref [] in
    List.iter
      (fun (src, dst, bytes) ->
        Engine.start_flow eng ~src ~dst ~bytes ~on_complete:(fun e ->
            finishes := Engine.now e :: !finishes))
      (random_flow_set 7 20);
    (match step with
    | None -> ignore (Engine.run eng)
    | Some dt ->
        for k = 1 to 200 do
          Engine.run_until eng (float_of_int k *. dt)
        done;
        ignore (Engine.run eng));
    List.rev !finishes
  in
  let direct = run_with_steps None in
  let stepped = run_with_steps (Some 0.01) in
  Alcotest.(check (list (float 1e-9))) "identical completions" direct stepped

let test_engine_flow_during_compute_timer () =
  (* Timers and flows advance on the same clock. *)
  let eng = Engine.create flat4 in
  let order = ref [] in
  Engine.after eng 0.5 (fun _ -> order := "timer" :: !order);
  Engine.start_flow eng ~src:0 ~dst:1 ~bytes:1.25e8 ~on_complete:(fun _ ->
      order := "flow" :: !order);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "timer fires mid-transfer" [ "timer"; "flow" ]
    (List.rev !order)

let () =
  Alcotest.run "rats_sim"
    [
      ( "maxmin",
        [
          Alcotest.test_case "single flow" `Quick test_maxmin_single;
          Alcotest.test_case "two flows share" `Quick test_maxmin_two_share;
          Alcotest.test_case "cap binds" `Quick test_maxmin_cap_binds;
          Alcotest.test_case "bottleneck chain" `Quick test_maxmin_bottleneck_chain;
          Alcotest.test_case "asymmetric bottleneck" `Quick
            test_maxmin_asymmetric_bottleneck;
          Alcotest.test_case "progressive refill" `Quick
            test_maxmin_progressive_refill;
          Alcotest.test_case "unconstrained flow" `Quick
            test_maxmin_unconstrained_flow;
          Alcotest.test_case "empty links with cap" `Quick
            test_maxmin_empty_links_with_cap;
          Alcotest.test_case "validation" `Quick test_maxmin_validation;
          Alcotest.test_case "utilization" `Quick test_maxmin_utilization;
          qcheck qcheck_maxmin_feasible;
          qcheck qcheck_maxmin_saturated;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "add/remove basics" `Quick test_inc_basics;
          Alcotest.test_case "untouched component stable" `Quick
            test_inc_untouched_component_stable;
          Alcotest.test_case "linkless flows" `Quick test_inc_linkless;
          Alcotest.test_case "validation" `Quick test_inc_validation;
          qcheck qcheck_inc_matches_reference;
          qcheck qcheck_inc_path_independent;
          qcheck qcheck_inc_fairness_certificate;
          Alcotest.test_case "refresh is allocation-free" `Quick
            test_inc_refresh_allocation_free;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single flow timing" `Quick
            test_engine_single_flow_timing;
          Alcotest.test_case "NIC sharing" `Quick test_engine_two_flows_share_nic;
          Alcotest.test_case "disjoint flows" `Quick
            test_engine_disjoint_flows_full_speed;
          Alcotest.test_case "self flow" `Quick test_engine_self_flow_instant;
          Alcotest.test_case "zero bytes" `Quick test_engine_zero_bytes_instant;
          Alcotest.test_case "timers" `Quick test_engine_timers;
          Alcotest.test_case "fifo same date" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "past event rejected" `Quick
            test_engine_past_event_rejected;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "dynamic rate change" `Quick
            test_engine_dynamic_rate_change;
          Alcotest.test_case "empirical bandwidth" `Quick
            test_engine_empirical_bandwidth;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cabinet contention" `Quick
            test_engine_cabinet_contention;
          Alcotest.test_case "same-date completions newest first" `Quick
            test_engine_same_date_completions_reverse;
          Alcotest.test_case "remaining survives compaction" `Quick
            test_engine_remaining_survives_compaction;
        ] );
      ( "stress",
        [
          Alcotest.test_case "500 flows" `Quick test_engine_mass_flows;
          qcheck qcheck_engine_flow_lower_bound;
          Alcotest.test_case "run_until equivalence" `Quick
            test_engine_run_until_equivalence;
          Alcotest.test_case "timer during flow" `Quick
            test_engine_flow_during_compute_timer;
        ] );
    ]
