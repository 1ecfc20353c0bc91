(** Deployment and cost-model configuration.

    Two kinds of setting live here.  The record {!t} holds what the
    experiments, benchmarks and tests vary: topology and replication
    degree, application pipelining, the message fabric and reliable
    transport, the ownership agent's timeouts, predictive locality, and
    the membership/failure-detection mode.  The values below it are the
    calibrated constants of the paper's one testbed (§8), which no
    experiment varies: the CPU cost model, the datastore thread count and
    the abort back-off policy.  Fault injection is not a field here:
    faults are either fabric knobs ({!Zeus_net.Fabric.config} — loss,
    duplication, reordering, partitions) set through [fabric], or
    declarative chaos schedules ({!Zeus_chaos.Schedule}) attached to a
    running cluster by {!Zeus_chaos.Nemesis}. *)

type t = {
  nodes : int;  (** cluster size (paper testbed: 3-6) *)
  replication_degree : int;  (** replicas per object, owner included (paper: 3) *)
  dir_replicas : int;  (** directory replication (paper: 3) *)
  app_threads : int;  (** application worker threads per node (paper: 10) *)
  pipeline_depth : int;  (** max in-flight reliable commits per thread (§5.2) *)
  auto_trim : bool;
      (** issue Remove_reader out of the critical path to restore the
          replication degree after a non-replica acquired ownership (§6.2) *)
  distributed_directory : bool;
      (** place each object's directory replicas by consistent hashing over
          all nodes instead of on one fixed replicated directory — the
          scalable scheme §6.2 prescribes for large deployments or limited
          locality *)
  record_history : bool;  (** feed the serializability checker (tests) *)
  locality : Zeus_locality.Engine.config;
      (** predictive ownership placement (access tracking, prefetch,
          anti-ping-pong pinning); disabled by default — with
          [locality.enabled = false] no engine is created and placement is
          exactly the paper's reactive behaviour *)
  fabric : Zeus_net.Fabric.config;
      (** message fabric: per-hop latency and bandwidth model, message CPU
          cost, and fault injection (loss, duplication, extra reordering
          delay, partitions, crash-stop) *)
  transport : Zeus_net.Transport.config;
      (** reliable-messaging layer; [transport.batching] (on by default)
          coalesces same-destination protocol messages within
          [Zeus_net.Transport.flush_window_us] into multi-payload frames with
          cumulative acks and per-link in-order delivery (the RDMA RC
          contract of §3.1).  Since the sequence-aware clear marks of
          [Zeus_commit.Core], in-order delivery is a latency optimization,
          not a correctness requirement: [Zeus_net.Transport.unordered]
          relaxes it (out-of-window payloads deliver immediately) and the
          protocols stay live — model-checked by [zeus_cli model]'s
          reordering scenarios.  Set [Zeus_net.Transport.unbatched] for
          the historical one-frame-per-message behaviour (the transport
          ablation; model checking does not use the transport). *)
  ownership : Zeus_ownership.Agent.config;
      (** ownership-protocol timeouts: request timeout, arb-replay delay *)
  commit_clear_marks : Zeus_commit.Core.clear_marks;
      (** follower-side R-VAL discipline of the reliable-commit protocol.
          [Sequenced] (default): R-VALs carry explicit slot watermarks, so
          commit streams tolerate arbitrary per-link reordering.
          [Legacy]: the historical arrival-order scheme, only live on FIFO
          links — kept as a compat knob pinning the known
          VAL-overtakes-first-INV deadlock as a model-checker negative
          control. *)
  membership_mode : Zeus_membership.Service.mode;
      (** [Oracle] (default): the membership service is told about crashes
          and installs the excluding view after
          {!Zeus_membership.Service.create}'s detection delay plus one
          lease (1 000 + 2 000 µs) by fiat.  [Detected]: failures are
          detected end-to-end — heartbeat silence, quorum suspicion, lease
          expiry, fencing — per [detection] below. *)
  detection : Zeus_membership.Detector.config;
      (** heartbeat period and adaptive suspicion timeout bounds; only
          read in [Detected] mode *)
  seed : int64;  (** root RNG seed — same seed, same simulation *)
}

val default : t
(** 3 nodes, 3-way replication, batched transport, Oracle membership,
    locality engine off — the paper's baseline deployment. *)

(** {1 Calibrated constants}

    The CPU costs (in µs) model the paper's testbed: dual-socket Skylake
    at 2.7 GHz with DPDK kernel-bypass messaging, where processing one
    small protocol message costs a few hundred nanoseconds and payloads
    pay a per-byte copy cost.  Absolute throughput depends on these
    constants; the comparisons between Zeus and the baselines depend only
    on message counts and blocking structure, which the protocols
    determine. *)

val ds_threads : int
(** Datastore worker threads per node (paper: 10). *)

val msg_proc_us : float
(** Handling one received protocol message. *)

val byte_proc_us : float
(** Per payload byte (copy in/out). *)

val local_commit_us : float
(** Single-node local commit. *)

val txn_dispatch_us : float
(** Fixed per-transaction overhead at the app thread. *)

val ownership_dispatch_us : float
(** App-side thread time to issue one ownership request and install the
    result, on top of the request's 1.5-RTT blocking wait (§3.2).
    Calibrated from the paper's own figures: one worker thread sustains
    25 K ownership ops/s while the request latency is 17 µs (§8.4), i.e.
    ~40 µs of thread time per op. *)

val backoff_base_us : float
(** Base of the exponential back-off on aborts (§6.2). *)

val backoff_max_us : float
(** Back-off cap. *)

val max_retries : int
(** Transaction retry budget before giving up. *)

val dir_nodes : t -> Zeus_store.Types.node_id list
(** The first [dir_replicas] nodes host the (replicated) ownership
    directory (§4: a single replicated directory; §6.2 discusses
    distributing it at larger scales).  Up to 64 directory replicas, every
    call returns the same shared list. *)

val dir_nodes_for : t -> key:Zeus_store.Types.key -> Zeus_store.Types.node_id list
(** Directory replicas responsible for [key]: the fixed set, or — with the
    distributed directory of §6.2 — [dir_replicas] consecutive nodes
    starting at a hash of the key. *)

val default_replicas : t -> owner:Zeus_store.Types.node_id -> Zeus_store.Replicas.t
(** Default replica placement for bootstrap and creation: the owner plus
    the next [replication_degree - 1] nodes in ring order. *)
