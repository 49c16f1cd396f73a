(** Max-Min fair bandwidth sharing (the core of the SimGrid contention model,
    paper §IV-A).

    Given a set of links with finite capacities and a set of flows, each
    crossing a subset of the links and optionally bounded by an end-to-end
    rate cap (SimGrid's empirical TCP bandwidth [β' = min(β, Wmax/RTT)]),
    compute the unique Max-Min fair rate vector by progressive filling: all
    unfrozen flow rates grow at the same speed; when a link saturates (or a
    flow hits its cap) the flows it carries freeze; repeat.

    A flow crossing no links and having an infinite cap gets rate
    [infinity].

    {!solve} is the reference implementation — O(rounds × (flows + links))
    per call, used by tests as an oracle. The simulation engine uses
    {!Incremental}, which keeps the flow set and its link adjacency live
    across flow arrivals and departures and re-solves each connected
    component with an allocation-free water-fill (see docs/ALGORITHMS.md
    for invariants and complexity). *)

type flow = {
  links : int array;  (** Indices of the links the flow crosses. *)
  rate_cap : float;  (** End-to-end bound; [infinity] when unconstrained. *)
}

val solve : n_links:int -> capacity:(int -> float) -> flow array -> float array
(** [solve ~n_links ~capacity flows] returns the fair rate of each flow, in
    the order of [flows]. [capacity l] must be > 0 for every link crossed by
    some flow. Raises [Invalid_argument] on out-of-range link indices or
    non-positive capacities/caps. *)

val utilization :
  n_links:int -> flow array -> rates:float array -> int -> float
(** [utilization ~n_links flows ~rates l] is the total rate crossing link
    [l] — handy for asserting feasibility in tests. *)

(** Incremental max-min solver.

    Holds the live flow set, its link→flow adjacency and its rate vector
    across [add]/[remove] calls; [refresh] brings the rates up to date by
    re-solving every connected component (of the flow–link sharing graph)
    once anything changed. After warm-up none of this allocates.

    The rate vector is a {e pure function of the alive flow set}: any
    sequence of adds and removes reaching the same set yields bit-identical
    rates (each component's water-fill performs the same float operations
    as {!solve} run on that component alone). Against {!solve} on the whole
    flow set the rates agree to ~1e-9 relative — the global algorithm
    interleaves level increments across components, a different float
    summation order. *)
module Incremental : sig
  type t

  type handle = int
  (** Identifies a live flow; invalid after {!remove}. *)

  val create : n_links:int -> capacity:(int -> float) -> unit -> t
  (** A solver for a fixed set of links. [capacity] is sampled once, at
      creation. *)

  val add : t -> links:int array -> rate_cap:float -> handle
  (** Registers a flow. Validation matches {!solve}: raises
      [Invalid_argument] on a non-positive cap, out-of-range link or
      non-positive link capacity. The new flow's rate (and its component's)
      is stale until the next {!refresh}. *)

  val remove : t -> handle -> unit
  (** Unregisters a flow. Raises [Invalid_argument] on a dead handle. *)

  val refresh : t -> unit
  (** Re-solves every component when a linked flow was added or removed
      since the previous refresh; no-op otherwise. Raises
      [Invalid_argument "Maxmin.Incremental: unbounded flow"] if a
      component has no finite constraint (cannot happen when every link
      capacity is finite). *)

  val rate : t -> handle -> float
  (** The flow's rate as of the last {!refresh} ([add] of a linkless flow
      sets its final rate immediately). *)

  val n_flows : t -> int
  (** Live flows currently registered. *)

  val publish : t -> unit
  (** Pushes counter deltas since the last publish to the metrics registry:
      refreshes to [Instr.maxmin_full_refreshes] (every refresh re-solves
      everything, so [Instr.maxmin_inc_refreshes] and
      [Instr.maxmin_skipped_flows] stay 0), component water-fills to
      [..._component_solves], their rounds to [..._inc_iterations] and the
      flows they solved to [..._dirty_flows]. Counters are kept as plain
      ints in between — the hot path never touches an atomic. *)
end
