module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type t = {
  dir : string;
  fault : Fault.t option;
  hits : int Atomic.t;
  misses : int Atomic.t;
  quarantined : int Atomic.t;
}

(* v4: every payload is an {!encode_rows} row list (nine per-module
   formats before). v3: the engine's incremental max-min solver
   water-fills per connected component, shifting fair rates (and thus some
   makespans) by rounding ulps relative to the old whole-set solve. v2:
   receiver-rank placement now falls back to natural order when greedy
   keeps fewer bytes local. *)
let version = "rats-runtime-4"

let default_dir = Filename.concat "bench_results" ".cache"

let quarantine_subdir = "quarantine"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?fault ?(dir = default_dir) () =
  (* An uncreatable directory (permissions, a file in the way) must not
     kill the run: the cache degrades to a pure miss machine. *)
  (try mkdir_p dir with Sys_error _ | Unix.Unix_error _ -> ());
  {
    dir;
    fault;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    quarantined = Atomic.make 0;
  }

let of_env ?fault () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "RATS_CACHE") with
  | Some ("off" | "0" | "no" | "false") -> None
  | _ ->
      let dir =
        Option.value (Sys.getenv_opt "RATS_CACHE_DIR") ~default:default_dir
      in
      Some (create ?fault ~dir ())

(* Length-prefixing each part makes the encoding injective: ["ab"; "c"] and
   ["a"; "bc"] hash differently. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    (version :: parts);
  Digest.to_hex (Digest.string (Buffer.contents buf))

type row = string * float list

(* "%h" round-trips every float bit-exactly except NaN, whose sign and
   payload it drops; NaN travels as its bit pattern instead. *)
let float_token v =
  if Float.is_nan v then Printf.sprintf "nan:%Lx" (Int64.bits_of_float v)
  else Printf.sprintf "%h" v

let float_of_token tok =
  if String.starts_with ~prefix:"nan:" tok then
    let hex = String.sub tok 4 (String.length tok - 4) in
    match Int64.of_string_opt ("0x" ^ hex) with
    | Some bits when Float.is_nan (Int64.float_of_bits bits) ->
        Some (Int64.float_of_bits bits)
    | _ -> None
  else
    match float_of_string_opt tok with
    | Some v when not (Float.is_nan v) -> Some v
    | _ -> None

(* Layout: the row count, then one line per row — the label and its
   values, tab-separated — each line newline-terminated. The count and the
   final newline make every strict prefix of a payload malformed. *)
let encode_rows rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (List.length rows));
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, values) ->
      if String.contains label '\t' || String.contains label '\n' then
        invalid_arg ("Cache.encode_rows: label " ^ String.escaped label);
      Buffer.add_string buf label;
      List.iter
        (fun v ->
          Buffer.add_char buf '\t';
          Buffer.add_string buf (float_token v))
        values;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let map_rows f rows =
  let mapped = List.map f rows in
  if List.for_all Option.is_some mapped then
    Some (List.filter_map Fun.id mapped)
  else None

let decode_rows payload =
  match String.split_on_char '\n' payload with
  | count :: lines -> (
      match (int_of_string_opt count, List.rev lines) with
      | Some n, "" :: rev_rows when List.length rev_rows = n ->
          map_rows
            (fun line ->
              match String.split_on_char '\t' line with
              | label :: tokens ->
                  Option.map
                    (fun values -> (label, values))
                    (map_rows float_of_token tokens)
              | [] -> None)
            (List.rev rev_rows)
      | _ -> None)
  | [] -> None

let path t key = Filename.concat t.dir (key ^ ".cache")

let quarantine_dir t = Filename.concat t.dir quarantine_subdir

(* Entry layout: 32 hex chars (MD5 of the payload), '\n', payload. *)
let read_entry file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 33 then None
      else begin
        let checksum = really_input_string ic 32 in
        let sep = input_char ic in
        let payload = really_input_string ic (len - 33) in
        if sep = '\n' && Digest.to_hex (Digest.string payload) = checksum then
          Some payload
        else None
      end)

(* A damaged entry is evidence — of a torn write, bad disk, or injected
   fault — so it is moved aside for post-mortem rather than destroyed; the
   slot becomes writable again either way. *)
let quarantine t file =
  Atomic.incr t.quarantined;
  Metrics.incr Instr.cache_quarantined;
  let moved =
    try
      mkdir_p (quarantine_dir t);
      Sys.rename file
        (Filename.concat (quarantine_dir t) (Filename.basename file));
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  if not moved then try Sys.remove file with Sys_error _ -> ()

let find t key =
  Instr.timed Instr.cache_read_seconds (fun () ->
      let file = path t key in
      let entry =
        if Sys.file_exists file then
          match read_entry file with
          | Some _ as e -> e
          | None | (exception _) ->
              quarantine t file;
              None
        else None
      in
      (match entry with
      | Some _ ->
          Atomic.incr t.hits;
          Metrics.incr Instr.cache_hits
      | None ->
          Atomic.incr t.misses;
          Metrics.incr Instr.cache_misses);
      entry)

let store t key payload =
  Instr.timed Instr.cache_write_seconds @@ fun () ->
  (* Injected write faults: [Corrupt] damages the payload after the
     checksum is taken (a torn write the reader must catch and quarantine);
     [Crash] aborts the write mid-entry like a full disk would. *)
  let checksum = Digest.to_hex (Digest.string payload) in
  let payload_to_write =
    Fault.corrupt_payload t.fault ~site:"cache.write" ~key payload
  in
  let tmp = ref None in
  try
    mkdir_p t.dir;
    let tmp_file, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:t.dir
        "entry" ".tmp"
    in
    tmp := Some tmp_file;
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc checksum;
        output_char oc '\n';
        (match t.fault with
        | Some fault when Fault.fires fault Fault.Crash ~site:"cache.write" ~key
          ->
            (* Half the payload lands, then the device fills up. *)
            output_string oc
              (String.sub payload_to_write 0 (String.length payload_to_write / 2));
            raise (Unix.Unix_error (Unix.ENOSPC, "write", tmp_file))
        | _ -> ());
        output_string oc payload_to_write);
    Sys.rename tmp_file (path t key);
    tmp := None
  with Sys_error _ | Unix.Unix_error _ -> (
    (* The cache is an accelerator, never a correctness dependency; a
       failed write must also not leak its temp file. *)
    match !tmp with
    | Some file -> (try Sys.remove file with Sys_error _ -> ())
    | None -> ())

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let quarantined t = Atomic.get t.quarantined

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let reset_counters t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.quarantined 0
