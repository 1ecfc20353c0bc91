(** Per-node agent of the reliable ownership protocol (§4).

    One agent runs on every node and plays all three roles:

    - {e requester}: [request] sends REQ to a directory node, collects the
      arbiters' ACKs, applies the new placement {e first} (§4.1), unblocks
      the caller after 1.5 RTT, and broadcasts VAL;
    - {e driver}: a directory node receiving REQ stamps the request with
      [o_ts = (obj_ver + 1, self)] and invalidates the other arbiters;
    - {e arbiter}: directory replicas, the current owner, and (when the
      owner is dead or the data must come from elsewhere) a designated
      reader buffer the pending arbitration, ACK, and apply on VAL.

    Contention is resolved by lexicographic [o_ts]: an arbiter only
    processes an INV that beats both its applied and pending timestamps,
    and a driver that processes a competitor's INV NACKs its own requester.
    Because every directory replica arbitrates every request, two
    concurrent requests always share an arbiter that picks the single
    winner.

    Failures: epoch-tagged messages are dropped across view changes; any
    blocked arbiter replays the idempotent arbitration ({e arb-replay})
    acting as driver, finishing with RESP to a live requester (who still
    applies first) or driver-side VALs when the requester died (§4.1). *)

open Zeus_store

type config = Core.config = {
  request_timeout_us : float;
      (** requester gives up (the app will retry with backoff) *)
  replay_after_us : float;
      (** how long an arbitration may stay pending before a blocked arbiter
          initiates arb-replay *)
}

val default_config : config

(** Passive tap on arbitration traffic, for placement engines
    ({!Zeus_locality}): observing never changes protocol behaviour. *)
type observer = {
  on_request : key:Types.key -> kind:Messages.kind -> requester:Types.node_id -> unit;
      (** this node is driving a request (it sees every requester of the
          keys it arbitrates for) *)
  on_owner_change : key:Types.key -> owner:Types.node_id -> unit;
      (** an [Acquire] validated at this node; [owner] is the new owner *)
}

type t

val create :
  ?config:config ->
  ?telemetry:Zeus_telemetry.Hub.t ->
  node:Types.node_id ->
  dir_nodes_of:(Types.key -> Types.node_id list) ->
  table:Table.t ->
  membership:Zeus_membership.Service.t ->
  Zeus_net.Transport.t ->
  t
(** The agent does not install transport handlers; the node runtime routes
    payloads to {!handle}.  [create] subscribes to membership changes.
    With [telemetry] and tracing enabled, every arbitration round-trip
    emits a span (category ["ownership"]) tagged with the key, kind,
    local-vs-remote driver, and its outcome
    (granted / denied / timeout). *)

val node : t -> Types.node_id

val set_observer : t -> observer -> unit
(** Install the (single) traffic observer. *)

val directory : t -> Directory.t
(** This node's directory shard: entries for the keys whose [dir_nodes_of]
    set contains this node (all keys, with the single replicated directory
    of §4; a hash slice with the distributed directory of §6.2). *)

val request :
  ?parent:Zeus_telemetry.Trace.span ->
  t ->
  key:Types.key ->
  kind:Messages.kind ->
  k:((unit, Messages.nack_reason) result -> unit) ->
  unit
(** Start an ownership request; [k] fires exactly once, when the request is
    applied locally (the 1.5-RTT unblock point), NACKed, or timed out.
    [parent] links the arbitration span to the transaction that needs the
    object. *)

val register_object : t -> Types.key -> Replicas.t -> unit
(** Creation path: install directory metadata (local directory replica
    synchronously, remote ones by reliable message). *)

val forget_object : t -> Types.key -> unit

val seed_directory : t -> Types.key -> Replicas.t -> unit
(** Bootstrap only: install directory metadata locally with no messaging. *)

val announce_recovery_done : t -> epoch:int -> unit
(** The commit layer drained all pending reliable commits from dead
    coordinators for [epoch]; tell the directory replicas so they resume
    serving requests for orphaned objects (§5.1). *)

val handle : t -> src:Types.node_id -> Zeus_net.Msg.payload -> bool
(** Process one protocol message; [false] if the payload is not ours. *)

val reset : t -> unit
(** Fresh-incarnation reset for a rejoining node: drop all protocol state
    (the crash-stop model of §3.1 — a returning node knows nothing).
    Directory entries are re-learnt from subsequent arbitrations. *)

(** {2 The store}

    The facts an input samples from one node's table, and the store
    effects it applies there.  The node is [Table.node]; the model checker
    runs these on its own tables. *)

val snapshot : Table.t -> Types.key -> Messages.data_snapshot option
(** The data an ACK or a replay carries: the held copy's value and
    version. *)

val facts :
  Core.state -> Table.t -> ?busy:bool -> Zeus_net.Msg.payload -> Core.facts
(** The store facts a delivery of the payload needs.  [busy] overrides
    {!Obj.busy} of the held copy: the model checker's injected branch.
    The agent never passes it. *)

val timer_facts : Table.t -> Core.timer_kind -> Core.facts

val apply_store : Table.t -> Core.eff -> unit
(** Applies a store effect ([Apply_arbiter], [Apply_requester],
    [Set_o_state], [Restore_request_state], [Drop_dead_replicas]); ignores
    the rest. *)

(** Observability *)

val latency_samples : t -> Zeus_sim.Stats.Samples.t
(** Requester-observed latency of successful requests, µs. *)

val requests_started : t -> int
val requests_won : t -> int
val requests_nacked : t -> int
val requests_timed_out : t -> int
val replays_started : t -> int

val requests_driven : t -> int
(** REQs this node served as a driver — the per-node directory load that
    the distributed directory of §6.2 spreads. *)

val metrics : t -> Zeus_telemetry.Metrics.t
(** The agent's typed registry (counters under ["ownership."], plus the
    ["ownership.arbitration_us"] histogram). *)

(** Record / replay *)

val set_io_tap : t -> (Core.input -> Core.eff list -> unit) -> unit
(** Observe every (input, effects) pair fed through the sans-I/O core, in
    order.  Inputs embed their sampled [env]/[facts], so a recorded
    sequence replayed into a fresh {!Core.state} reproduces the same
    states and effect lists deterministically. *)

val core_fingerprint : t -> string
(** {!Core.fingerprint} of the live core (replay-equivalence checks). *)
