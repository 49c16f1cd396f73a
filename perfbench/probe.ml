module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr
module Trace = Rats_obs.Trace

let now = Instr.now_s

(* --- registry counters read around each traced call -------------------- *)

let map_counters kind =
  List.map
    (fun strategy -> Instr.map_strategy_counter ~strategy kind)
    [ "hcpa"; "delta"; "time-cost" ]

let counter_defs =
  [|
    ("sim.events", [ Instr.sim_events ]);
    ("sim.maxmin_full_refreshes", [ Instr.maxmin_full_refreshes ]);
    ("sim.maxmin_inc_refreshes", [ Instr.maxmin_inc_refreshes ]);
    ("sim.maxmin_component_solves", [ Instr.maxmin_component_solves ]);
    ("sim.maxmin_rounds", [ Instr.maxmin_inc_iterations ]);
    ("sim.maxmin_dirty_flows", [ Instr.maxmin_dirty_flows ]);
    ("sim.maxmin_skipped_flows", [ Instr.maxmin_skipped_flows ]);
    ("core.hcpa_refinements", [ Instr.alloc_refinements ]);
    ("core.timing_lookups", [ Instr.timing_lookups ]);
    ("dag.timing_entries", [ Instr.timing_table_entries ]);
    ("core.map_packed", map_counters `Packed);
    ("core.map_stretched", map_counters `Stretched);
  |]

let counter_names = Array.map fst counter_defs

let counter_index name =
  let rec go i =
    if i = Array.length counter_names then invalid_arg ("Probe: " ^ name)
    else if counter_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let read_counters () =
  Array.map
    (fun (_, cs) ->
      List.fold_left (fun acc c -> acc + Metrics.counter_value c) 0 cs)
    counter_defs

(* --- GC ------------------------------------------------------------------ *)

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

let gc_zero =
  { minor_words = 0.; promoted_words = 0.; minor_collections = 0; major_collections = 0 }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  start : float;
  stop : float;
  counts : int array;
  gc : gc;
}

type t = {
  mutable enabled : bool;
  mutable stack : (int * int) list;  (** (span id, request id), innermost first *)
  mutable rev_spans : span list;
  mutable next_id : int;
  tracer : Trace.t;  (** The span file's events; never installed globally. *)
}

let create () =
  { enabled = false; stack = []; rev_spans = []; next_id = 0; tracer = Trace.create () }

let set_enabled t on = t.enabled <- on
let enabled t = t.enabled

(* The span's identity and deltas, as Chrome trace-event args. *)
let args_of s =
  let counts =
    Array.to_list counter_names
    |> List.mapi (fun i n -> (n, s.counts.(i)))
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.map (fun (n, v) -> (n, string_of_int v))
  in
  ("id", string_of_int s.id)
  :: ("parent", string_of_int s.parent)
  :: ("req", string_of_int s.req)
  :: ("minor_words", Printf.sprintf "%.0f" s.gc.minor_words)
  :: counts

let span t ?req name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent, inherited =
      match t.stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
    in
    let req = Option.value req ~default:inherited in
    t.stack <- (id, req) :: t.stack;
    let recorded = ref None in
    let measured () =
      let c0 = read_counters () in
      let g0 = gc_now () in
      let start = now () in
      Fun.protect f ~finally:(fun () ->
          let stop = now () in
          let g1 = gc_now () in
          let c1 = read_counters () in
          t.stack <- List.tl t.stack;
          let s =
            {
              id;
              parent;
              req;
              name;
              start;
              stop;
              counts = Array.mapi (fun i v -> v - c0.(i)) c1;
              gc = gc_diff g0 g1;
            }
          in
          recorded := Some s;
          t.rev_spans <- s :: t.rev_spans)
    in
    Trace.span_on t.tracer ~cat:"perfbench"
      ~args:(fun () -> Option.fold ~none:[] ~some:args_of !recorded)
      name measured
  end

let spans t = List.rev t.rev_spans
let n_spans t = t.next_id

type totals = { total_s : float; self_s : float; counts : int array }

(* Per-name aggregates over [spans]; a span's self time is its duration
   minus the durations of its direct children (children never overlap,
   the program being serial). *)
let aggregate spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.
          +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self =
        dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
      in
      let acc =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            {
              total_s = 0.;
              self_s = 0.;
              counts = Array.make (Array.length counter_names) 0;
            }
      in
      Hashtbl.replace by_name s.name
        {
          total_s = acc.total_s +. dur;
          self_s = acc.self_s +. self;
          counts = Array.mapi (fun i v -> v + s.counts.(i)) acc.counts;
        })
    spans;
  fun name -> Hashtbl.find_opt by_name name

let write t path = Trace.write_chrome t.tracer path
