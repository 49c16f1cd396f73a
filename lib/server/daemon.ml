module Journal = Rats_runtime.Journal
module Fault = Rats_runtime.Fault
module Stats = Rats_util.Stats
module J = Rats_obs.Json
module Metrics = Rats_obs.Metrics
module Instr = Rats_obs.Instr

type write_result = Wrote of int | Again | Broken
type transport = { write : string -> int -> int -> write_result }

type client = {
  cid : int;
  transport : transport;
  decoder : Protocol.Decoder.t;
  mutable watching : bool;
  mutable alive : bool;
  outq : string Queue.t;  (* frames not yet started *)
  mutable out_cur : string;  (* frame currently being written *)
  mutable out_off : int;
  mutable out_pending : int;  (* total unwritten bytes across outq + out_cur *)
  mutable reads : int;  (* chunks received, keys the server.read fault site *)
  mutable msgs : int;  (* messages handled, keys server.client *)
}

type t = {
  engine : Engine.t;
  fault : Fault.t option;
  journal : Journal.t option;
  client_buffer : int;
  backlog_limit : int;
  mutable clients : client list;  (* live clients, connection order *)
  mutable backlog : int;  (* sum of out_pending over live clients *)
  mutable degraded : bool;
  mutable n_evicted : int;
  mutable n_shed : int;
  mutable next_cid : int;
  mutable stopped : bool;
}

let alive c = c.alive
let wants_write c = c.alive && c.out_pending > 0
let stopped d = d.stopped

let num x = J.Num x
let int n = J.Num (float_of_int n)

let stats_json (s : Engine.stats) =
  J.Obj
    [
      ("submitted", int s.Engine.submitted);
      ("admitted", int s.Engine.admitted);
      ("rejected", int s.Engine.rejected);
      ("completed", int s.Engine.completed);
      ("expired", int s.Engine.expired);
      ("queue_depth_max", int s.Engine.queue_depth_max);
      ("busy_time", num s.Engine.busy_time);
      ("end_time", num s.Engine.end_time);
      ("utilization", num s.Engine.utilization);
      ("sojourn_p50", num (Stats.percentile s.Engine.sojourns 50.));
      ("sojourn_p99", num (Stats.percentile s.Engine.sojourns 99.));
    ]

(* Called after every backlog decrease or increase: enter above the limit,
   leave only below half of it. *)
let update_degraded d =
  if (not d.degraded) && d.backlog > d.backlog_limit then begin
    d.degraded <- true;
    Printf.eprintf
      "ratsd: degraded: %d bytes of client backlog (limit %d); shedding \
       event streams\n\
       %!"
      d.backlog d.backlog_limit
  end
  else if d.degraded && d.backlog < d.backlog_limit / 2 then begin
    d.degraded <- false;
    Printf.eprintf "ratsd: recovered: backlog down to %d bytes\n%!" d.backlog
  end

let kill d c =
  if c.alive then begin
    c.alive <- false;
    d.backlog <- d.backlog - c.out_pending;
    c.out_pending <- 0;
    Queue.clear c.outq;
    c.out_cur <- "";
    c.out_off <- 0;
    d.clients <- List.filter (fun c' -> c' != c) d.clients;
    update_degraded d
  end

let hang_up = kill

let evict d c reason =
  if c.alive then begin
    d.n_evicted <- d.n_evicted + 1;
    Metrics.incr Instr.server_clients_evicted;
    Printf.eprintf "ratsd: evicting client #%d (%s)\n%!" c.cid reason;
    kill d c
  end

(* Write as much buffered output as the transport takes right now. *)
let rec write_out d c =
  if c.alive then
    if c.out_off >= String.length c.out_cur then (
      match Queue.take_opt c.outq with
      | None -> ()
      | Some frame ->
          c.out_cur <- frame;
          c.out_off <- 0;
          write_out d c)
    else
      match
        c.transport.write c.out_cur c.out_off
          (String.length c.out_cur - c.out_off)
      with
      | Wrote 0 | Again -> ()
      | Wrote n ->
          c.out_off <- c.out_off + n;
          c.out_pending <- c.out_pending - n;
          d.backlog <- d.backlog - n;
          write_out d c
      | Broken -> kill d c

let flush d c =
  write_out d c;
  update_degraded d

let send d c msg =
  if c.alive then
    let enqueue () =
      let frame = Protocol.to_frame (Protocol.server_to_json msg) in
      Queue.add frame c.outq;
      c.out_pending <- c.out_pending + String.length frame;
      d.backlog <- d.backlog + String.length frame;
      write_out d c
    in
    let over_budget () =
      evict d c
        (Printf.sprintf "%d bytes of output buffered, budget %d" c.out_pending
           d.client_buffer)
    in
    match msg with
    | Protocol.Event _ when d.degraded ->
        (* Shed streamed events first: watchers are best-effort, command
           replies are not. *)
        d.n_shed <- d.n_shed + 1;
        Metrics.incr Instr.server_events_shed
    | Protocol.Event _ ->
        (* A watcher that stops reading is evicted once its stream
           overflows the per-client budget. *)
        enqueue ();
        if c.out_pending > d.client_buffer then over_budget ()
        else update_degraded d
    | _ when c.out_pending > d.client_buffer ->
        (* A client that keeps asking but stops reading: its replies are
           policed on what it left unread before this one, so a single
           reply larger than the budget (a Log) still goes through. *)
        over_budget ()
    | _ ->
        enqueue ();
        update_degraded d

let create ?fault ?journal ~client_buffer ~backlog_limit engine =
  let d =
    {
      engine;
      fault;
      journal;
      client_buffer;
      backlog_limit;
      clients = [];
      backlog = 0;
      degraded = false;
      n_evicted = 0;
      n_shed = 0;
      next_cid = 0;
      stopped = false;
    }
  in
  (* Events stream synchronously to every watcher, including during a
     drain triggered by another connection; send only buffers (and may
     evict), it never blocks. *)
  Engine.subscribe engine (fun ev ->
      List.iter
        (fun c -> if c.watching then send d c (Protocol.Event ev))
        d.clients);
  d

let connect d transport =
  let c =
    {
      cid = d.next_cid;
      transport;
      decoder = Protocol.Decoder.create ();
      watching = false;
      alive = true;
      outq = Queue.create ();
      out_cur = "";
      out_off = 0;
      out_pending = 0;
      reads = 0;
      msgs = 0;
    }
  in
  d.next_cid <- d.next_cid + 1;
  d.clients <- d.clients @ [ c ];
  c

let health d =
  J.Obj
    [
      ("ready", J.Bool (not d.degraded));
      ("degraded", J.Bool d.degraded);
      ("clients", int (List.length d.clients));
      ( "watchers",
        int (List.length (List.filter (fun c -> c.watching) d.clients)) );
      ("backlog_bytes", int d.backlog);
      ("evicted", int d.n_evicted);
      ("events_shed", int d.n_shed);
      ("queue_depth", int (Engine.queue_depth d.engine));
      ("free_procs", int (Engine.free_procs d.engine));
      ("now", num (Engine.now d.engine));
      ( "journal_writable",
        J.Bool
          (match d.journal with Some j -> Journal.writable j | None -> false)
      );
      ( "fault",
        match d.fault with Some f -> J.Str (Fault.spec f) | None -> J.Null );
    ]

let handle_msg d c = function
  | Protocol.Ping -> send d c Protocol.Pong
  | Protocol.Health -> send d c (Protocol.Healthy (health d))
  | Protocol.Watch ->
      if d.degraded then
        send d c
          (Protocol.Err "degraded: event streaming disabled until the \
                         backlog clears")
      else begin
        c.watching <- true;
        send d c Protocol.Watching
      end
  | Protocol.Plan request -> (
      match Api.place ~cluster:(Engine.cluster d.engine) request with
      | Error e -> send d c (Protocol.Err e)
      | Ok (response, _) ->
          send d c (Protocol.Placed (Api.response_to_json response)))
  | Protocol.Submit { at; request } -> (
      match Engine.submit d.engine ?at request with
      | Ok id -> send d c (Protocol.Ack { id })
      | Error e -> send d c (Protocol.Err e))
  | Protocol.Drain ->
      let end_time = Engine.drain d.engine in
      send d c (Protocol.Drained { end_time })
  | Protocol.Log ->
      if d.degraded then
        send d c
          (Protocol.Err "degraded: log streaming disabled until the backlog \
                         clears")
      else send d c (Protocol.Log (Engine.events d.engine))
  | Protocol.Stats ->
      send d c (Protocol.Stats (stats_json (Engine.stats d.engine)))
  | Protocol.Shutdown ->
      send d c Protocol.Bye;
      d.stopped <- true

let rec drain_frames d c =
  match Protocol.Decoder.next c.decoder with
  | Ok None -> ()
  | Ok (Some doc) ->
      c.msgs <- c.msgs + 1;
      (match d.fault with
      | Some f
        when Fault.fires f Fault.Crash ~site:"server.client"
               ~key:(Printf.sprintf "%d:%d" c.cid c.msgs) ->
          (* Injected mid-session disconnect: the client sees a closed
             socket, the daemon must shrug it off. *)
          Metrics.incr Instr.fault_injections;
          Printf.eprintf "ratsd: injected disconnect of client #%d\n%!" c.cid;
          kill d c
      | _ -> (
          match Protocol.client_of_json doc with
          | Ok msg -> handle_msg d c msg
          | Error e -> send d c (Protocol.Err e)));
      if c.alive && not d.stopped then drain_frames d c
  | Error e ->
      send d c (Protocol.Err ("protocol error: " ^ e));
      kill d c

let receive d c buf n =
  if c.alive then begin
    c.reads <- c.reads + 1;
    (match d.fault with
    | None -> Protocol.Decoder.feed c.decoder buf 0 n
    | Some _ ->
        (* server.read: a corrupt chunk desynchronizes the frame stream;
           the decoder's sticky error drops exactly this client. *)
        let chunk =
          Fault.corrupt_payload d.fault ~site:"server.read"
            ~key:(Printf.sprintf "%d:%d" c.cid c.reads)
            (Bytes.sub_string buf 0 n)
        in
        Protocol.Decoder.feed c.decoder (Bytes.unsafe_of_string chunk) 0
          (String.length chunk));
    drain_frames d c
  end
