type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let workloads = [ "sweep_grillon"; "sweep_grelon"; "service_mixed" ]

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "throughput_ops_s" "1/s" Higher;
    m "plan_p50_ms" "ms" Lower;
    m "plan_tail_ms" "ms" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "ok_ratio" "ratio" Higher;
    m "sim_makespan_ratio" "ratio" Lower;
  ]

let per_layer =
  [
    (* set-up *)
    m "daggen.generate_s" "s" Lower;
    m "core.problem_make_s" "s" Lower;
    m "dag.timing_entries" "count" Lower;
    m "workload.trace_compile_s" "s" Lower;
    (* allocation and mapping *)
    m "core.hcpa_s" "s" Lower;
    m "core.hcpa_refinements" "count" Lower;
    m "core.map_s" "s" Lower;
    m "core.timing_lookups" "count" Lower;
    m "core.map_packed" "count" Higher;
    m "core.map_stretched" "count" Higher;
    m "plan.samples" "count" Higher;
    (* simulator *)
    m "core.evaluate_s" "s" Lower;
    m "sim.events" "count" Lower;
    m "sim.host_us_per_event" "us" Lower;
    m "sim.queue_depth_max" "count" Lower;
    m "sim.maxmin_full_refreshes" "count" Lower;
    m "sim.maxmin_inc_refreshes" "count" Lower;
    m "sim.maxmin_component_solves" "count" Lower;
    m "sim.maxmin_rounds" "count" Lower;
    m "sim.maxmin_dirty_flows" "count" Lower;
    m "sim.maxmin_skipped_flows" "count" Higher;
    m "sim.maxmin_inc_share" "ratio" Higher;
    m "sim.maxmin_skip_ratio" "ratio" Higher;
    (* online service *)
    m "server.submit_s" "s" Lower;
    m "server.drain_s" "s" Lower;
    m "server.plan_s" "s" Lower;
    m "server.plan_self_s" "s" Lower;
    m "server.replay_s" "s" Lower;
    m "server.admitted" "count" Higher;
    m "server.rejected" "count" Lower;
    m "server.expired" "count" Lower;
    m "server.completed" "count" Higher;
    m "server.queue_depth_max" "count" Lower;
    m "server.sojourn_p99_s" "s" Lower;
    (* memory *)
    m "gc.alloc_words_per_op" "words" Lower;
    m "gc.alloc_words_per_event" "words" Lower;
    m "gc.minor_collections" "count" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.promoted_words" "words" Lower;
    (* the benchmark itself *)
    m "bench.self_s" "s" Lower;
    m "trace.spans" "count" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let for_all_chars ok s =
  let rec go i = i = String.length s || (ok s.[i] && go (i + 1)) in
  go 0

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && for_all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && for_all_chars
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let better_name = function Lower -> "lower" | Higher -> "higher"
