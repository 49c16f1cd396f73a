(* Tests for rats_runtime: pool determinism, cache round-trip/keying/
   corruption recovery, the payload row codec, the aggregate cache path
   ([Exec.memo]) and the qcheck order-preservation property. *)

module Suite = Rats_daggen.Suite
module Cluster = Rats_platform.Cluster
module Runner = Rats_exp.Runner
module Tuning = Rats_exp.Tuning
module Ablation = Rats_exp.Ablation
module Pool = Rats_runtime.Pool
module Cache = Rats_runtime.Cache
module Exec = Rats_runtime.Exec
module Fault = Rats_runtime.Fault

let check = Alcotest.check

(* A private cache directory per test run; tests must not touch the real
   bench_results/.cache. *)
let fresh_cache_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rats_cache_test_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f))
      (Sys.readdir path) (* lint: allow D003 — deletion order is irrelevant *);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache f =
  let dir = fresh_cache_dir () in
  let cache = Cache.create ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f cache)

(* --- pool ---------------------------------------------------------------- *)

(* The acceptance bar of the subsystem: a 20-configuration suite prefix
   yields the same result list — same order, bit-identical floats — for any
   worker count. *)
let test_pool_determinism () =
  let configs = List.filteri (fun i _ -> i < 20) (Suite.all Suite.Smoke) in
  let run jobs = Pool.map ~jobs (Runner.run_config Cluster.chti) configs in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      let parallel = run jobs in
      check Alcotest.int
        (Printf.sprintf "length at jobs=%d" jobs)
        (List.length serial) (List.length parallel);
      List.iter2
        (fun (a : Runner.result) (b : Runner.result) ->
          check Alcotest.bool
            (Printf.sprintf "identical result at jobs=%d for %s" jobs
               (Suite.name a.Runner.config))
            true (a = b))
        serial parallel)
    [ 2; 4; 7 ]

let test_pool_exception () =
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 17 then raise Exit else i)
           (List.init 40 Fun.id)))

let test_pool_empty_and_mapi () =
  check Alcotest.(list int) "empty input" [] (Pool.map ~jobs:4 succ []);
  check
    Alcotest.(list int)
    "mapi indices" [ 10; 12; 14 ]
    (Pool.mapi ~jobs:3 (fun i x -> i + x) [ 10; 11; 12 ])

(* --- cache --------------------------------------------------------------- *)

let test_cache_roundtrip () =
  with_cache (fun cache ->
      let key = Cache.key [ "test"; "roundtrip" ] in
      check Alcotest.(option string) "miss before store" None
        (Cache.find cache key);
      Cache.store cache key "payload with\nnewline and \xff bytes";
      check
        Alcotest.(option string)
        "hit after store"
        (Some "payload with\nnewline and \xff bytes")
        (Cache.find cache key);
      check Alcotest.int "one hit" 1 (Cache.hits cache);
      check Alcotest.int "one miss" 1 (Cache.misses cache))

let test_cache_key_sensitivity () =
  let base = [ "runner"; "cluster-sig"; "fft-k8-s0"; "0x1p-1" ] in
  let k = Cache.key base in
  List.iter
    (fun (label, parts) ->
      check Alcotest.bool label true (k <> Cache.key parts))
    [
      ("parameter change", [ "runner"; "cluster-sig"; "fft-k8-s0"; "0x1p-2" ]);
      ("config change", [ "runner"; "cluster-sig"; "fft-k4-s0"; "0x1p-1" ]);
      ("cluster change", [ "runner"; "other-sig"; "fft-k8-s0"; "0x1p-1" ]);
      ("part-boundary shift", [ "runner"; "cluster-sigf"; "ft-k8-s0"; "0x1p-1" ]);
    ]

let test_cache_corruption_recovery () =
  with_cache (fun cache ->
      let key = Cache.key [ "test"; "corruption" ] in
      Cache.store cache key "precious result";
      let file = Cache.path cache key in
      (* Tamper with the payload behind the checksum's back. *)
      let oc = open_out_bin file in
      output_string oc "garbage that is long enough to parse as an entry";
      close_out oc;
      check Alcotest.(option string) "corrupted entry is a miss" None
        (Cache.find cache key);
      check Alcotest.bool "corrupted entry deleted" false
        (Sys.file_exists file);
      (* The slot is usable again after recovery. *)
      Cache.store cache key "recomputed";
      check
        Alcotest.(option string)
        "recovered" (Some "recomputed") (Cache.find cache key))

(* --- cache error paths (driven by fault injection) ----------------------- *)

let fault_of_spec spec =
  match Rats_runtime.Fault.parse spec with
  | Ok t -> t
  | Error reason -> Alcotest.failf "spec %S rejected: %s" spec reason

(* A write fault tears the payload behind the checksum's back; the reader
   must detect it, quarantine the file and recover on the next store. *)
let test_cache_corrupt_write_quarantine () =
  let dir = fresh_cache_dir () in
  let fault = fault_of_spec "corrupt@cache.write=1" in
  let cache = Cache.create ~fault ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let key = Cache.key [ "test"; "torn-write" ] in
      Cache.store cache key "a payload long enough to be torn in half";
      check Alcotest.(option string) "torn entry is a miss" None
        (Cache.find cache key);
      check Alcotest.int "torn entry quarantined" 1 (Cache.quarantined cache);
      check Alcotest.bool "quarantine dir holds the evidence" true
        (Sys.file_exists (Cache.quarantine_dir cache)
        && Sys.readdir (Cache.quarantine_dir cache) <> [||] (* lint: allow D003 — only emptiness is checked *));
      (* A clean cache on the same directory can reuse the slot. *)
      let clean = Cache.create ~dir () in
      Cache.store clean key "recomputed";
      check
        Alcotest.(option string)
        "slot usable after quarantine" (Some "recomputed")
        (Cache.find clean key))

(* A crash mid-write (simulated ENOSPC) must leave no entry at all — the
   temp-file-plus-rename protocol never exposes a half-written file. *)
let test_cache_crash_write_is_noop () =
  let dir = fresh_cache_dir () in
  let fault = fault_of_spec "crash@cache.write=1" in
  let cache = Cache.create ~fault ~dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let key = Cache.key [ "test"; "enospc" ] in
      Cache.store cache key "never makes it to disk";
      check Alcotest.bool "no entry file" false
        (Sys.file_exists (Cache.path cache key));
      check Alcotest.(option string) "store degraded to a no-op" None
        (Cache.find cache key);
      check Alcotest.bool "no temp litter" true
        (Array.for_all
           (fun f -> f = "quarantine")
           (Sys.readdir dir) (* lint: allow D003 — order-insensitive for_all *)))

(* A cache directory that cannot be created (nested under a regular file —
   chmod is useless when tests run as root) degrades to misses and no-op
   stores instead of raising. *)
let test_cache_unwritable_dir () =
  let blocker = Filename.temp_file "rats_cache_blocker" "" in
  Fun.protect ~finally:(fun () -> Sys.remove blocker)
    (fun () ->
      let cache = Cache.create ~dir:(Filename.concat blocker "cache") () in
      let key = Cache.key [ "test"; "unwritable" ] in
      Cache.store cache key "dropped";
      check Alcotest.(option string) "store was a no-op" None
        (Cache.find cache key);
      check Alcotest.int "lookups count as misses" 1 (Cache.misses cache))

let test_cache_runner_integration () =
  with_cache (fun cache ->
      let config = { Suite.spec = Suite.Fft { k = 2 }; sample = 0 } in
      let fresh = Runner.run_config Cluster.chti config in
      let exec = Exec.make ~jobs:1 ~cache () in
      let run () = Runner.run_config_outcome ~exec Cluster.chti config in
      let stored = run () in
      let replayed = run () in
      check Alcotest.bool "first run computed" true
        (stored.Exec.source = Exec.Computed);
      check Alcotest.bool "second run from the cache" true
        (replayed.Exec.source = Exec.From_cache);
      check Alcotest.bool "cached result identical" true
        (stored.Exec.value = Ok fresh);
      check Alcotest.bool "replayed result identical" true
        (replayed.Exec.value = Ok fresh);
      check Alcotest.int "second lookup hit" 1 (Cache.hits cache))

(* --- payload codec ------------------------------------------------------- *)

let bits = List.map Int64.bits_of_float

let rows_bits rows = List.map (fun (label, values) -> (label, bits values)) rows

let rows_testable = Alcotest.(option (list (pair string (list int64))))

let specials =
  [
    Float.nan;
    Int64.float_of_bits 0xFFF8_0000_0000_0000L (* negative quiet NaN *);
    Int64.float_of_bits 0x7FF0_0000_0000_0001L (* signalling NaN *);
    Float.infinity;
    Float.neg_infinity;
    -0.;
    0.;
    4.9e-324 (* smallest subnormal *);
    -2.2250738585072009e-308 (* largest negative subnormal *);
    Float.max_float;
    Float.min_float;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl specials);
        (3, map Int64.float_of_bits ui64);
        (3, float);
      ])

(* Any byte but the two separators. *)
let gen_label =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 6)
    |> map (String.map (function '\t' | '\n' -> ' ' | c -> c)))

let arb_rows =
  QCheck.make
    ~print:(fun rows -> String.escaped (Cache.encode_rows rows))
    QCheck.Gen.(
      list_size (int_range 0 5)
        (pair gen_label (list_size (int_range 0 4) gen_float)))

let prop_codec_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"row codec round-trips bit-exactly; every strict prefix is None"
    arb_rows (fun rows ->
      let payload = Cache.encode_rows rows in
      let decoded = Cache.decode_rows payload in
      Option.map rows_bits decoded = Some (rows_bits rows)
      && List.for_all
           (fun len -> Cache.decode_rows (String.sub payload 0 len) = None)
           (List.init (String.length payload) Fun.id))

let test_codec_malformed () =
  List.iter
    (fun payload ->
      check rows_testable (String.escaped payload) None
        (Option.map rows_bits (Cache.decode_rows payload)))
    [
      "";
      "x";
      "1\n";
      "2\na\t0x1p+0\n";
      "0\nextra\n";
      "1\na\t0x1p+0";
      "1\na\tnot-a-float\n";
      "1\na\t0x1p+0\t\n";
      "1\na\tnan\n";
      "1\na\tnan:0\n";
      "1\na\tnan:zz\n";
      "-1\n";
    ];
  check rows_testable "empty payload list" (Some [])
    (Option.map rows_bits (Cache.decode_rows (Cache.encode_rows [])));
  List.iter
    (fun label ->
      match Cache.encode_rows [ (label, [ 1. ]) ] with
      | _ -> Alcotest.failf "label %S accepted" label
      | exception Invalid_argument _ -> ())
    [ "a\tb"; "a\nb"; "\n" ]

(* --- aggregate cache path (Exec.memo) ------------------------------------ *)

let tiny_configs =
  [
    { Suite.spec = Suite.Fft { k = 2 }; sample = 0 };
    { Suite.spec = Suite.Strassen; sample = 1 };
  ]

let delta_bits points =
  List.concat_map
    (fun (p : Tuning.delta_point) ->
      bits
        [
          p.Tuning.mindelta; p.Tuning.maxdelta; p.Tuning.avg_relative_makespan;
        ])
    points

let ratio_bits rows =
  List.map
    (fun (r : Ablation.ratio_row) ->
      (r.Ablation.label, bits [ r.Ablation.mean_ratio; r.Ablation.max_ratio ]))
    rows

let fault spec =
  match Fault.parse spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "fault spec %S: %s" spec e

let exec_on ?fault cache = Exec.make ~jobs:1 ?fault ~cache ()
let sweep exec = Tuning.sweep_delta_for ~exec Cluster.chti tiny_configs
let placement exec = Ablation.placement_study ~exec Cluster.chti tiny_configs

let test_memo_cold_warm () =
  with_cache (fun cache ->
      let cold = exec_on cache in
      let cold_sweep = sweep cold and cold_rows = placement cold in
      check Alcotest.int "cold: two misses" 2 (Cache.misses cache);
      check Alcotest.int "cold: no hit" 0 (Cache.hits cache);
      Cache.reset_counters cache;
      (* Every unit would crash: a warm run must not run any. *)
      let warm = exec_on ~fault:(fault "crash@worker=1") cache in
      let warm_sweep = sweep warm and warm_rows = placement warm in
      check Alcotest.int "warm: no miss" 0 (Cache.misses cache);
      check Alcotest.int "warm: two hits" 2 (Cache.hits cache);
      check Alcotest.int "warm: no unit ran" 0
        (Atomic.get warm.Exec.stats.Exec.failed);
      check Alcotest.(list int64) "sweep bit-equal" (delta_bits cold_sweep)
        (delta_bits warm_sweep);
      check
        Alcotest.(list (pair string (list int64)))
        "study bit-equal" (ratio_bits cold_rows) (ratio_bits warm_rows))

let test_memo_skips_failed_units () =
  with_cache (fun cache ->
      let faulty = exec_on ~fault:(fault "seed=1,crash@worker=0.2") cache in
      ignore (sweep faulty);
      check Alcotest.bool "some unit failed" true
        (Atomic.get faulty.Exec.stats.Exec.failed > 0);
      Cache.reset_counters cache;
      let clean = sweep (exec_on cache) in
      check Alcotest.int "clean run misses" 1 (Cache.misses cache);
      check Alcotest.int "grid complete" 20 (List.length clean);
      Cache.reset_counters cache;
      let warm = sweep (exec_on cache) in
      check Alcotest.int "clean result stored" 1 (Cache.hits cache);
      check Alcotest.(list int64) "replayed bit-equal" (delta_bits clean)
        (delta_bits warm))

(* The entry file of the one aggregate a run cached. *)
let only_entry cache =
  let dir = Filename.dirname (Cache.path cache "x") in
  match
    List.filter
      (fun f -> Filename.check_suffix f ".cache")
      (List.sort String.compare (Array.to_list (Sys.readdir dir)))
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "%d cache entries" (List.length files)

let test_memo_corrupt_payload_recomputed () =
  with_cache (fun cache ->
      let cold = ratio_bits (placement (exec_on cache)) in
      let file = only_entry cache in
      let key = Filename.remove_extension (Filename.basename file) in
      let recovers what =
        Cache.reset_counters cache;
        check
          Alcotest.(list (pair string (list int64)))
          (what ^ ": recomputed bit-equal") cold
          (ratio_bits (placement (exec_on cache)));
        Cache.reset_counters cache;
        ignore (placement (exec_on cache));
        check Alcotest.int (what ^ ": rewritten entry hits") 1
          (Cache.hits cache)
      in
      (* A well-formed entry whose payload is not a row list. *)
      Cache.store cache key "0x1p+0 0x1p+1";
      recovers "undecodable payload";
      (* A torn file: checksum mismatch, quarantined. *)
      let oc = open_out_bin file in
      output_string oc "garbage";
      close_out oc;
      recovers "torn entry";
      check Alcotest.bool "torn entry quarantined" true
        (Sys.file_exists
           (Filename.concat (Cache.quarantine_dir cache)
              (Filename.basename file))))

(* --- qcheck -------------------------------------------------------------- *)

let prop_pool_map_order =
  QCheck.Test.make ~count:100 ~name:"Pool.map preserves order for arbitrary f"
    QCheck.(
      triple (fun1 Observable.int small_int) (small_list int) (int_range 1 8))
    (fun (f, l, jobs) ->
      Pool.map ~jobs (QCheck.Fn.apply f) l = List.map (QCheck.Fn.apply f) l)

let () =
  Alcotest.run "rats_runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "determinism vs serial (20-config suite)" `Slow
            test_pool_determinism;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "empty input and mapi" `Quick
            test_pool_empty_and_mapi;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "corrupted entry recovery" `Quick
            test_cache_corruption_recovery;
          Alcotest.test_case "torn write quarantined" `Quick
            test_cache_corrupt_write_quarantine;
          Alcotest.test_case "crashed write is a no-op" `Quick
            test_cache_crash_write_is_noop;
          Alcotest.test_case "unwritable directory degrades" `Quick
            test_cache_unwritable_dir;
          Alcotest.test_case "runner integration" `Quick
            test_cache_runner_integration;
        ] );
      ( "codec",
        [
          Alcotest.test_case "malformed payloads" `Quick test_codec_malformed;
          Rats_test_support.Seeded.to_alcotest prop_codec_roundtrip;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "cold then warm bit-equal" `Quick
            test_memo_cold_warm;
          Alcotest.test_case "failed unit not stored" `Quick
            test_memo_skips_failed_units;
          Alcotest.test_case "corrupt payload recomputed" `Quick
            test_memo_corrupt_payload_recomputed;
        ] );
      ( "properties",
        [ Rats_test_support.Seeded.to_alcotest prop_pool_map_order ] );
    ]
