(* Tests for rats_util: RNG, processor sets, priority queue, statistics. *)

module Rng = Rats_util.Rng
module Procset = Rats_util.Procset
module Pqueue = Rats_util.Pqueue
module Stats = Rats_util.Stats
module Units = Rats_util.Units

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qcheck t = Rats_test_support.Seeded.to_alcotest t

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float r 5. in
    Alcotest.(check bool) "in [0,5)" true (x >= 0. && x < 5.)
  done

let test_rng_uniform_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.uniform r 2. 3. in
    Alcotest.(check bool) "in [2,3)" true (x >= 2. && x < 3.)
  done

let test_rng_uniform_mean () =
  let r = Rng.create 5 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform r 0. 1.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_int_bounds () =
  let r = Rng.create 6 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_rng_int_range () =
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.int_range r (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (x >= -3 && x <= 3)
  done;
  check Alcotest.int "degenerate range" 5 (Rng.int_range r 5 5)

let test_rng_bool_probability () =
  let r = Rng.create 9 in
  let n = 10000 in
  let t = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr t
  done;
  let f = float_of_int !t /. float_of_int n in
  Alcotest.(check bool) "frequency near 0.3" true (Float.abs (f -. 0.3) < 0.03)

let test_rng_shuffle_multiset () =
  let r = Rng.create 10 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check (array int)) "permutation" a sb;
  Alcotest.(check bool) "actually shuffled" true (a <> b)

(* --- Procset ------------------------------------------------------------- *)

let procset = Alcotest.testable Procset.pp Procset.equal

let test_procset_of_array () =
  let s = Procset.of_array [| 5; 1; 3; 1; 5 |] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 3; 5 ] (Procset.to_list s);
  check Alcotest.int "size" 3 (Procset.size s)

let test_procset_negative_rejected () =
  Alcotest.check_raises "negative index" (Invalid_argument
    "Procset.of_array: negative index") (fun () ->
      ignore (Procset.of_array [| -1; 2 |]))

let test_procset_range () =
  let s = Procset.range 3 4 in
  Alcotest.(check (list int)) "range" [ 3; 4; 5; 6 ] (Procset.to_list s);
  check procset "empty range" Procset.empty (Procset.range 0 0)

let test_procset_mem_rank_nth () =
  let s = Procset.of_list [ 2; 4; 9 ] in
  Alcotest.(check bool) "mem 4" true (Procset.mem 4 s);
  Alcotest.(check bool) "mem 5" false (Procset.mem 5 s);
  Alcotest.(check (option int)) "rank 9" (Some 2) (Procset.rank 9 s);
  Alcotest.(check (option int)) "rank 3" None (Procset.rank 3 s);
  check Alcotest.int "nth 1" 4 (Procset.nth s 1)

let test_procset_nth_out_of_bounds () =
  let s = Procset.of_list [ 1 ] in
  Alcotest.check_raises "nth oob" (Invalid_argument "Procset.nth") (fun () ->
      ignore (Procset.nth s 1))

let test_procset_set_ops () =
  let a = Procset.of_list [ 1; 2; 3; 4 ] and b = Procset.of_list [ 3; 4; 5 ] in
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (Procset.to_list (Procset.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ]
    (Procset.to_list (Procset.union a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Procset.to_list (Procset.diff a b));
  Alcotest.(check bool) "subset" true
    (Procset.subset (Procset.of_list [ 3 ]) b);
  Alcotest.(check bool) "not subset" false (Procset.subset a b)

let test_procset_first_n () =
  let s = Procset.of_list [ 4; 8; 15; 16 ] in
  Alcotest.(check (list int)) "first 2" [ 4; 8 ]
    (Procset.to_list (Procset.first_n s 2))

let sorted_int_list =
  QCheck.(small_list (int_bound 200))

let qcheck_union_model =
  QCheck.Test.make ~count:200 ~name:"union matches list model"
    QCheck.(pair sorted_int_list sorted_int_list)
    (fun (xs, ys) ->
      let a = Procset.of_list xs and b = Procset.of_list ys in
      let model = List.sort_uniq compare (xs @ ys) in
      Procset.to_list (Procset.union a b) = model)

let qcheck_inter_model =
  QCheck.Test.make ~count:200 ~name:"inter matches list model"
    QCheck.(pair sorted_int_list sorted_int_list)
    (fun (xs, ys) ->
      let a = Procset.of_list xs and b = Procset.of_list ys in
      let model =
        List.sort_uniq compare (List.filter (fun x -> List.mem x ys) xs)
      in
      Procset.to_list (Procset.inter a b) = model)

let qcheck_rank_nth_inverse =
  QCheck.Test.make ~count:200 ~name:"rank and nth are inverse"
    sorted_int_list
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Procset.of_list xs in
      let ok = ref true in
      for r = 0 to Procset.size s - 1 do
        let p = Procset.nth s r in
        if Procset.rank p s <> Some r then ok := false
      done;
      !ok)

(* --- Pqueue -------------------------------------------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v)
    [ (3., "c"); (1., "a"); (2., "b"); (0.5, "z") ];
  let out = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "min-first" [ "z"; "a"; "b"; "c" ]
    (List.rev !out)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1. v) [ 1; 2; 3; 4; 5 ];
  let out = List.init 5 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list int)) "insertion order for equal priorities"
    [ 1; 2; 3; 4; 5 ] out

let test_pqueue_min_prio () =
  let q = Pqueue.create () in
  Alcotest.(check (float 0.)) "empty" infinity (Pqueue.min_prio q);
  Pqueue.push q 2. "b";
  Pqueue.push q 1. "a";
  Alcotest.(check (float 0.)) "minimum" 1. (Pqueue.min_prio q);
  check Alcotest.int "size" 2 (Pqueue.size q);
  ignore (Pqueue.pop q);
  Alcotest.(check (float 0.)) "after pop" 2. (Pqueue.min_prio q);
  ignore (Pqueue.pop q);
  Alcotest.(check (float 0.)) "drained" infinity (Pqueue.min_prio q)

let test_pqueue_clear () =
  let q = Pqueue.create () in
  Pqueue.push q 1. ();
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q)

let qcheck_pqueue_sorts =
  QCheck.Test.make ~count:200 ~name:"pqueue drains in sorted order"
    QCheck.(list (float_bound_exclusive 1000.))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) prios;
      let rec drain acc =
        match Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare prios)

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 5. 5;
  Pqueue.push q 1. 1;
  Alcotest.(check bool) "pop 1" true (Pqueue.pop q = Some (1., 1));
  Pqueue.push q 3. 3;
  Pqueue.push q 0.5 0;
  Alcotest.(check bool) "pop 0" true (Pqueue.pop q = Some (0.5, 0));
  Alcotest.(check bool) "pop 3" true (Pqueue.pop q = Some (3., 3));
  Alcotest.(check bool) "pop 5" true (Pqueue.pop q = Some (5., 5));
  Alcotest.(check bool) "empty" true (Pqueue.pop q = None)

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean () =
  checkf "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  checkf "empty mean" 0. (Stats.mean [||])

let test_stats_median () =
  checkf "odd" 3. (Stats.median [| 5.; 3.; 1. |]);
  checkf "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  let a = [| 3.; 1.; 2. |] in
  ignore (Stats.median a);
  Alcotest.(check (array (float 0.))) "argument untouched" [| 3.; 1.; 2. |] a

let test_stats_stddev () =
  checkf "constant" 0. (Stats.stddev [| 2.; 2.; 2. |]);
  Alcotest.(check (float 1e-6)) "known" (sqrt 2.)
    (Stats.stddev [| 1.; 3.; 1.; 3.; 1.; 3.; 1.; 3. |] *. sqrt 2.)

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.; -1.; 7. |] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty")
    (fun () -> ignore (Stats.min_max [||]))

let test_stats_fraction_below () =
  checkf "half" 0.5 (Stats.fraction_below [| 0.5; 1.5; 0.7; 2. |] 1.);
  checkf "none" 0. (Stats.fraction_below [||] 1.)

let test_stats_geometric_mean () =
  checkf "gm of 2,8" 4. (Stats.geometric_mean [| 2.; 8. |]);
  checkf "empty" 1. (Stats.geometric_mean [||])

(* --- Units --------------------------------------------------------------- *)

let test_units () =
  checkf "gflops" 2e9 (Units.gflops 2.);
  checkf "gbit" 1.25e8 (Units.gbit_per_s 1.);
  checkf "us" 1e-4 (Units.microseconds 100.);
  checkf "element size" 8. Units.bytes_per_element

let test_units_pp () =
  check Alcotest.string "time us" "50.00us"
    (Format.asprintf "%a" Units.pp_time 50e-6);
  check Alcotest.string "bytes mib" "1.0MiB"
    (Format.asprintf "%a" Units.pp_bytes 1048576.)

let () =
  Alcotest.run "rats_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
        ] );
      ( "procset",
        [
          Alcotest.test_case "of_array" `Quick test_procset_of_array;
          Alcotest.test_case "negative rejected" `Quick test_procset_negative_rejected;
          Alcotest.test_case "range" `Quick test_procset_range;
          Alcotest.test_case "mem/rank/nth" `Quick test_procset_mem_rank_nth;
          Alcotest.test_case "nth bounds" `Quick test_procset_nth_out_of_bounds;
          Alcotest.test_case "set operations" `Quick test_procset_set_ops;
          Alcotest.test_case "first_n" `Quick test_procset_first_n;
          qcheck qcheck_union_model;
          qcheck qcheck_inter_model;
          qcheck qcheck_rank_nth_inverse;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "min_prio" `Quick test_pqueue_min_prio;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
          qcheck qcheck_pqueue_sorts;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "fraction_below" `Quick test_stats_fraction_below;
          Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
        ] );
      ( "units",
        [
          Alcotest.test_case "conversions" `Quick test_units;
          Alcotest.test_case "pretty printing" `Quick test_units_pp;
        ] );
    ]
