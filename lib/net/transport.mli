(** Reliable messaging over the unreliable {!Fabric}.

    The paper's datastore ships a custom reliable messaging library over
    DPDK (§3.1, §7): low-level retransmission recovers lost messages,
    receivers deduplicate, and protocol messages to the same peer are
    coalesced into batched frames to amortize per-frame overheads.  This
    module reproduces it.  Its {!config} holds the two switches the
    experiments vary, [batching] and [ordered]; the timers, window sizes
    and retry budget are the calibrated constants below it.  Receivers
    always deduplicate.

    {b Batched} (default, [batching = true]): messages to the same
    destination enqueued within {!flush_window_us} (or within one simulator
    instant — the "doorbell") are packed into a single multi-payload
    [Batch] frame whose fabric size is the sum of its parts plus one
    header.  The receiver delivers in order behind a cumulative watermark,
    holding a bounded out-of-order window, and acks the highest in-order
    sequence — piggybacked on reverse-direction batches when possible,
    via a delayed-ack timer otherwise.  Retransmission is go-back-N with
    a single RTO timer per peer flow.  Delivery is order-preserving per
    flow.

    {b Unbatched} ([batching = false]): the same machinery — send ring,
    go-back-N RTO per flow, watermark dedup, incarnations — with one
    payload per frame.  Each send flushes its flow at once, so the payload
    leaves alone in a [Batch] frame, and the receiver answers every frame
    at once with a standalone 16-byte cumulative ack, so nothing is left
    to piggyback.  Delivery is in order unless {!unordered} is set too.

    Flows carry incarnation numbers: any reset (endpoint crash, sender
    give-up) bumps the incarnation, so a rejoined node restarting at
    sequence 0 is never swallowed as a duplicate and stragglers from the
    old incarnation are ignored.

    The timers — each flow's RTO and delayed ack, each node's flush — are
    plain event ids that hold [Engine.no_event] when unarmed, and their
    callbacks are built once, in {!create}; a node's dirty flows wait on a
    fixed stack.  Queueing, flushing and acking therefore allocate nothing
    beyond the frames themselves and the engine's boxed computed delays. *)

type config = {
  batching : bool;  (** coalesce frames + cumulative acks (default on) *)
  ordered : bool;
      (** [true] (default): per-flow in-order delivery — payloads ahead of
          the cumulative watermark are held in the OOO window until the
          gap fills (the RDMA RC contract of §3.1).  [false]: payloads
          ahead of the watermark deliver {e immediately} (multipath /
          QUIC-datagram-style fabrics); still exactly-once, no longer
          in-order.  The commit protocol's sequence-aware clear marks
          ([Zeus_commit.Core.Sequenced]) keep it live either way. *)
}

val default_config : config

val unbatched : config -> config
(** [unbatched c] is [c] with [batching = false] — one payload per frame
    and one standalone ack per frame, for the transport ablation.  [ordered]
    keeps its meaning. *)

val unordered : config -> config
(** [unordered c] is [c] with [ordered = false] — reliable exactly-once
    delivery without the per-flow ordering guarantee. *)

(** {1 Calibrated constants} *)

val rto_us : float
(** Base retransmission timeout: 40 µs. *)

val rto_backoff : float
(** Multiplier applied per consecutive retransmission without window
    progress (capped exponential backoff with deterministic jitter);
    progress resets the timeout to {!rto_us}. *)

val rto_max_us : float
(** Backoff ceiling. *)

val max_retries : int
(** Give up after this many retransmissions (a crashed peer is the
    membership service's problem). *)

val flush_window_us : float
(** How long an enqueued message may wait for companions before its flow
    is flushed: 2 µs. *)

val delayed_ack_us : float
(** How long the receiver withholds a standalone cumulative ack hoping to
    piggyback it on reverse-direction data. *)

val max_batch : int
(** Max payloads packed into one [Batch] frame. *)

val max_ooo : int
(** Receive-side out-of-order window; payloads beyond it are dropped and
    recovered by retransmission, keeping state bounded.  Only read when
    [ordered]. *)

type t

val create : ?config:config -> ?telemetry:Zeus_telemetry.Hub.t -> Fabric.t -> t
(** Installs itself as every node's fabric handler.  With [telemetry],
    frame/payload/ack/retransmission counters register in the hub's typed
    registry (prefix ["transport."]) and — when tracing is enabled — each
    batched frame emits a per-flow batch-residency span (oldest enqueue to
    frame send; [pid] = sender, [tid] = destination). *)

val fabric : t -> Fabric.t

val set_handler : t -> Msg.node_id -> (src:Msg.node_id -> Msg.payload -> unit) -> unit
(** Application-level receive handler for a node. *)

val send : t -> src:Msg.node_id -> dst:Msg.node_id -> size:int -> Msg.payload -> unit
(** Reliable send of a payload of [size] bytes (required: an optional
    argument would box a [Some] per payload): retransmits until
    acknowledged or {!max_retries} is exhausted.  Batched, the payload is
    queued on the per-peer flow and leaves with the next flush; unbatched,
    it leaves at once in a frame of its own. *)

val flush : t -> Msg.node_id -> unit
(** Doorbell: flush [node]'s pending outgoing frames at the end of the
    current simulator instant instead of waiting out the flush window.
    All sends enqueued at the current timestamp still coalesce; no latency
    is added.  Protocol agents ring this after a fan-out burst.  No-op when
    unbatched, where nothing waits. *)

val send_unreliable : t -> src:Msg.node_id -> dst:Msg.node_id -> size:int -> Msg.payload -> unit
(** Plain fabric send, bypassing retransmission (used for traffic where the
    protocol layer has its own replay, and in tests). *)

val crash : t -> Msg.node_id -> unit
(** Crash the node at fabric level and reset transport state {e
    symmetrically}: the node's own send and receive windows, its peers'
    retransmission state toward it, and its peers' receive windows for its
    flows (with an incarnation bump, so the rejoined node's fresh sequence
    0 is not deduplicated away). *)

val recover : t -> Msg.node_id -> unit

val retransmissions : t -> int
(** Total retransmitted payloads (observability for tests/benches). *)

val backoffs : t -> int
(** Retransmission bursts fired (each re-armed with a backed-off timeout);
    mirrors the [transport.backoff] counter. *)

val rto_after : src:Msg.node_id -> dst:Msg.node_id -> retries:int -> float
(** The timeout armed after [retries] consecutive retransmissions without
    window progress: [rto_us * rto_backoff^retries], capped at
    {!rto_max_us}, plus up to 10 % of deterministic per-flow jitter (a pure
    hash of [src], [dst], [retries] — no RNG draw, so arming a timer never
    perturbs the simulation's random streams).  Exposed for tests. *)

type stats = {
  frames : int;  (** data frames handed to the fabric *)
  payloads : int;  (** protocol payloads carried by those frames *)
  retransmitted : int;
  piggybacked_acks : int;  (** cumulative acks carried by reverse data *)
  standalone_acks : int;  (** dedicated ack frames (one per frame unbatched) *)
  mean_occupancy : float;  (** mean payloads per data frame *)
  max_occupancy : float;
}

val stats : t -> stats

val tx_backlog : t -> int
(** Total unacknowledged sender-side payloads across all flows, in either
    mode (0 once the network is quiescent — bounded-state invariant for
    property tests). *)

val rx_backlog : t -> int
(** Total receive-side out-of-order/dedup entries across all flows. *)
