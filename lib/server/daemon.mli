(** [ratsd]'s connection core: one {!Engine} served to many clients.

    This is the daemon's per-connection state machine without the sockets:
    frame decoding and message dispatch, buffered output with partial
    writes, per-client budget eviction, degraded-mode hysteresis and event
    shedding (docs/SERVER.md "Failure semantics"). It makes no system call
    and reads no clock. The caller owns the select/accept/read/close loop:
    it hands every chunk it reads to {!receive}, calls {!flush} when a
    socket turns writable, and writes through the {!transport} it gave
    {!connect}, so a test can drive the whole core in-process with a fake
    transport.

    {b Output.} Every reply and event is framed and queued on its client;
    {!flush} writes as much as the transport takes and keeps the rest.
    A client whose unwritten output exceeds [client_buffer] bytes is
    evicted: a watcher once an event pushes it over, a client that keeps
    asking when its new reply would join output it already left unread
    past the budget — so one reply larger than the budget (a [Log]) still
    goes through. When the output buffered across all clients exceeds
    [backlog_limit] the daemon is degraded: it sheds [Event] frames and
    refuses [Watch] and [Log] until the backlog falls below half the
    limit.

    {b Faults.} With a fault spec armed, [crash\@server.client] drops a
    client before its [n]-th message (key ["<cid>:<n>"]) and
    [corrupt\@server.read] damages its [n]-th chunk (key ["<cid>:<n>"]);
    client ids count from 0 in {!connect} order, [n] from 1. *)

type write_result =
  | Wrote of int  (** Bytes accepted, possibly fewer than offered. *)
  | Again  (** Would block: keep the rest for the next writable round. *)
  | Broken  (** The peer is gone (EPIPE, ECONNRESET). *)

type transport = { write : string -> int -> int -> write_result }
(** [write s off len] offers [len] bytes of [s] from [off]; never blocks. *)

type t
type client

val create :
  ?fault:Rats_runtime.Fault.t ->
  ?journal:Rats_runtime.Journal.t ->
  client_buffer:int ->
  backlog_limit:int ->
  Engine.t ->
  t
(** Serves [engine] and subscribes to it, so every engine event streams to
    every watching client. [fault] arms the two client sites above and is
    reported by [Health] together with the [journal]'s writability. *)

val connect : t -> transport -> client
(** A new live client with the next client id. *)

val receive : t -> client -> bytes -> int -> unit
(** [receive d c buf n]: the first [n] bytes of [buf] arrived from [c].
    Handles every complete frame in order; a framing or JSON error is
    answered with [Err] and drops the client. Stops after [Shutdown]. *)

val flush : t -> client -> unit
(** Writes [c]'s buffered output until the transport stops taking it. *)

val hang_up : t -> client -> unit
(** The peer closed its end: drop the client and its unwritten output. *)

val alive : client -> bool

val wants_write : client -> bool
(** Live with unwritten output. *)

val stopped : t -> bool
(** A client asked for [Shutdown]. *)

val health : t -> Rats_obs.Json.t
(** The [Health] reply: readiness, degraded flag, live clients and
    watchers, backlog bytes, evictions, shed events, engine queue depth,
    free processors, simulated time, journal writability, fault spec. *)
