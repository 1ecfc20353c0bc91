(** Lease-based reliable membership (§3.1), in two modes.

    The paper relies on a ZooKeeper-with-leases scheme: failures are
    detected {e unreliably}, but a membership update is installed across
    the deployment only after every node lease has expired, so all live
    nodes observe the same sequence of views (epochs).

    {b [Oracle]} (default) models that external service as an omniscient
    one: [kill] crashes a node at the fabric level and, after
    [detect_us + lease_us] of virtual time, the next view (epoch + 1) is
    delivered to every live node with a small per-node skew.  Nothing is
    ever actually detected — the service is {e told}.

    {b [Detected]} puts a real unreliable detector underneath the same
    lease machinery.  Every node periodically sends small heartbeats over
    the transport's unreliable path and feeds {e every} received payload
    (heartbeat or batched protocol traffic — the per-peer flows double as
    a liveness signal) into a per-peer {!Detector}.  A node raises a
    suspicion when a peer's silence exceeds the adaptive timeout and
    retracts it when traffic resumes.  The service — still modeling the
    external ZooKeeper, reachable out-of-band — aggregates suspicions: once
    a {e quorum} (majority of the other live nodes) suspects a peer it
    starts the lease clock, and at expiry, if the quorum still stands,
    installs the node-excluding view.  A suspect that was in fact alive
    (false suspicion: one-way partition, gray node, delay spike) is
    {e fenced}: its lease died, so it is force-crashed at the fabric level
    — it observes its own eviction — and must rejoin as a fresh
    incarnation (via the fence hook, or an automatic re-register after
    [rejoin_backoff_us]).  A suspicion quorum that collapses before lease
    expiry (traffic resumed) is an {e averted} eviction: no view change,
    no fence.

    [kill] in [Detected] mode only crashes the fabric; reconfiguration
    happens iff the peers detect the silence end-to-end.  [rejoin] stays
    an announcement in both modes — re-registering with ZooKeeper is an
    explicit session creation, not something detected.

    Counters (registered on the telemetry hub, prefix ["membership."]):
    heartbeats sent, suspicions raised/retracted, false suspicions,
    fences, evictions averted, views installed; each detection-phase
    transition also emits a zero-length ["membership"] trace instant. *)

type mode = Oracle | Detected

val lease_us : float
(** Lease length: a view excluding a node is installed only after its
    lease expired (2 ms). *)

val detect_us : float
(** [Oracle] mode: the external service's detection delay before the
    lease clock starts (1 ms). *)

val skew_us : float
(** Upper bound of the uniform per-node delay with which an installed
    view reaches each live node (5 µs). *)

val rejoin_backoff_us : float
(** How long a fenced (falsely-suspected-but-alive) node waits before it
    re-registers as a fresh incarnation (1.5 ms): automatically when no
    fence hook is installed, and through {!Zeus_core.Cluster}'s hook
    otherwise. *)

(** Detection-side observability (all zero in [Oracle] mode). *)
type det_stats = {
  heartbeats : int;        (** heartbeat frames handed to the fabric *)
  suspicions : int;        (** reporter->suspect transitions raised *)
  retractions : int;       (** suspicions withdrawn after traffic resumed *)
  false_suspicions : int;  (** evictions of nodes that were in fact alive *)
  fences : int;            (** force-crashes of falsely-suspected nodes *)
  evictions_averted : int; (** lease expiries where the quorum had collapsed *)
  views_installed : int;   (** views installed (both modes) *)
}

type t

val create :
  ?mode:mode ->
  ?detection:Detector.config ->
  ?telemetry:Zeus_telemetry.Hub.t ->
  Zeus_net.Transport.t ->
  t
(** In [Detected] mode this installs a default transport handler per node
    (so a standalone service detects on its own); {!Zeus_core.Node}
    replaces those handlers and routes payloads through {!observe}
    instead. *)

val mode : t -> mode

val view : t -> View.t
(** The service's latest installed view. *)

val node_view : t -> Zeus_net.Msg.node_id -> View.t
(** The view currently held by a given node (it may lag the service's during
    the skew window). *)

val epoch_at : t -> Zeus_net.Msg.node_id -> int

val is_live : t -> Zeus_net.Msg.node_id -> bool
(** Whether the service's latest view includes the node. *)

val stable : t -> bool
(** No reconfiguration in flight: every node the current view calls live
    has installed that view.  Online invariant monitors sample only in
    stable windows — mid-reconfiguration states are the protocols' problem,
    not a monitor false positive. *)

val subscribe : t -> Zeus_net.Msg.node_id -> (View.t -> unit) -> unit
(** Called (in subscription order) each time the node installs a new view.
    Stored reversed and normalized at install time, so subscribing is O(1)
    however many subscribers a node accumulates. *)

val kill : t -> Zeus_net.Msg.node_id -> unit
(** Crash the node now.  [Oracle]: a view excluding it is installed after
    detection + lease expiry.  [Detected]: fabric-level crash only — the
    view changes iff the surviving nodes detect the silence. *)

val rejoin : t -> Zeus_net.Msg.node_id -> unit
(** Revive a crashed node and install a view including it (an explicit
    re-registration in both modes).  In [Detected] mode, re-registering a
    node the current view still calls live first installs the excluding
    view: the re-registration proves the old incarnation's session died
    (crash + restart inside the detection window), and peers must observe
    the incarnation boundary to recover its lost state. *)

(** {2 Detected-mode surface} (no-ops / [false] in [Oracle] mode) *)

val observe : t -> dst:Zeus_net.Msg.node_id -> src:Zeus_net.Msg.node_id ->
  Zeus_net.Msg.payload -> bool
(** Feed a received payload into [dst]'s detector; returns [true] iff the
    payload was a membership heartbeat (consumed — do not dispatch it to
    the protocol agents).  Node receive handlers call this first. *)

val suspected : t -> by:Zeus_net.Msg.node_id -> Zeus_net.Msg.node_id -> bool
(** Whether [by] currently reports the node as suspected. *)

val det_stats : t -> det_stats

val detection_bound_us : t -> float
(** Worst-case crash-to-view-installed latency the detector configuration
    guarantees: one heartbeat period of arrival slack, one period of
    suspicion-check granularity, the suspicion-timeout cap, the lease, and
    the install skew.  Deterministic recovery tests assert against this. *)

val set_fence_hook : t -> (Zeus_net.Msg.node_id -> unit) -> unit
(** Called after a falsely-suspected-but-alive node has been fenced
    (force-crashed) and the excluding view installed.  The hook owns the
    node's rejoin (e.g. {!Zeus_core.Cluster} resets the node's protocol
    state and re-registers it); without a hook the service re-registers
    the fenced node itself after [rejoin_backoff_us]. *)

val suspend : t -> unit
(** Cancel the standing heartbeat/suspicion timers so the engine can
    drain ({!Zeus_core.Cluster.run_quiesce} calls this); {!resume}
    re-arms them. *)

val resume : t -> unit
