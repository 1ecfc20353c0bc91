(** Deployment and cost-model configuration.

    The CPU costs (in µs) model the paper's testbed: dual-socket Skylake at
    2.7 GHz with DPDK kernel-bypass messaging, where processing one small
    protocol message costs a few hundred nanoseconds and payloads pay a
    per-byte copy cost.  Absolute throughput numbers depend on these
    constants; the comparisons between Zeus and the baselines depend only
    on message counts and blocking structure, which the protocols determine. *)

type t = {
  nodes : int;
  replication_degree : int;  (** replicas per object, owner included (paper: 3) *)
  dir_replicas : int;        (** directory replication (paper: 3) *)
  app_threads : int;         (** application worker threads per node (paper: 10) *)
  ds_threads : int;          (** datastore worker threads per node (paper: 10) *)
  (* CPU cost model, µs *)
  msg_proc_us : float;       (** handling one received protocol message *)
  byte_proc_us : float;      (** per payload byte (copy in/out) *)
  local_commit_us : float;   (** single-node local commit *)
  txn_dispatch_us : float;   (** fixed per-transaction overhead at the app thread *)
  ownership_dispatch_us : float;
      (** app-side thread time to issue one ownership request and install
          the result, on top of the request's 1.5-RTT blocking wait (§3.2).
          Calibrated from the paper's own figures: one worker thread
          sustains 25 K ownership ops/s while the request latency is
          17 µs (§8.4), i.e. ~40 µs of thread time per op. *)
  (* application-level policies *)
  pipeline_depth : int;      (** max in-flight reliable commits per thread *)
  backoff_base_us : float;   (** exponential back-off on aborts (§6.2) *)
  backoff_max_us : float;
  max_retries : int;
  auto_trim : bool;
      (** issue Remove_reader out of the critical path to restore the
          replication degree after a non-replica acquired ownership (§6.2) *)
  distributed_directory : bool;
      (** place each object's directory replicas by consistent hashing over
          all nodes instead of on one fixed replicated directory — the
          scalable scheme §6.2 prescribes for large deployments or limited
          locality *)
  record_history : bool;     (** feed the serializability checker (tests) *)
  locality : Zeus_locality.Engine.config;
      (** predictive ownership placement (access tracking, prefetch,
          anti-ping-pong pinning); disabled by default — with
          [locality.enabled = false] no engine is created and placement is
          exactly the paper's reactive behaviour *)
  fabric : Zeus_net.Fabric.config;
  transport : Zeus_net.Transport.config;
      (** reliable-messaging layer; [transport.batching] (on by default)
          coalesces same-destination protocol messages within
          [transport.flush_window_us] into multi-payload frames with
          cumulative acks — set [Zeus_net.Transport.unbatched] for the
          historical one-frame-per-message behaviour (model checking,
          ablations) *)
  ownership : Zeus_ownership.Agent.config;
  commit_clear_marks : Zeus_commit.Core.clear_marks;
      (** follower-side R-VAL discipline; [Sequenced] (default) carries
          ordering in the messages and stays live on reordering links,
          [Legacy] is the historical arrival-order scheme that leans on
          per-link FIFO delivery *)
  lease_us : float;
  detect_us : float;
  membership_mode : Zeus_membership.Service.mode;
      (** [Oracle] (default): the membership service is told about crashes
          and installs the excluding view after [detect_us + lease_us] by
          fiat.  [Detected]: failures are detected end-to-end — heartbeat
          silence, quorum suspicion, lease expiry, fencing — per
          [detection] below. *)
  detection : Zeus_membership.Service.detection;
      (** heartbeat period, adaptive suspicion timeout bounds, and the
          fenced-node rejoin backoff; only read in [Detected] mode *)
  seed : int64;
}

let default =
  {
    nodes = 3;
    replication_degree = 3;
    dir_replicas = 3;
    app_threads = 10;
    ds_threads = 10;
    msg_proc_us = 0.30;
    byte_proc_us = 0.0008;
    local_commit_us = 0.25;
    txn_dispatch_us = 0.15;
    ownership_dispatch_us = 28.0;
    pipeline_depth = 32;
    backoff_base_us = 3.0;
    backoff_max_us = 400.0;
    max_retries = 12;
    auto_trim = true;
    distributed_directory = false;
    record_history = false;
    locality = Zeus_locality.Engine.default_config;
    fabric = Zeus_net.Fabric.default_config;
    transport = Zeus_net.Transport.default_config;
    ownership = Zeus_ownership.Agent.default_config;
    commit_clear_marks = Zeus_commit.Core.Sequenced;
    lease_us = 2_000.0;
    detect_us = 1_000.0;
    membership_mode = Zeus_membership.Service.Oracle;
    detection = Zeus_membership.Service.default_detection;
    seed = 42L;
  }

(** The first [dir_replicas] nodes host the (replicated) ownership
    directory (§4: a single replicated directory; §6.2 discusses
    distributing it at larger scales). *)
let dir_nodes =
  (* The ownership core looks the directory up several times per input:
     shared [0; ...; k-1] lists keep the fixed directory allocation-free. *)
  let prefixes = Array.init 65 (fun k -> List.init k Fun.id) in
  fun t ->
    let k = min t.dir_replicas t.nodes in
    if k < Array.length prefixes then prefixes.(k) else List.init k Fun.id

(* Knuth multiplicative hash: spreads contiguous keys across nodes. *)
let key_hash key = key * 2654435761 land max_int

(** Directory replicas responsible for [key]: the fixed set, or — with the
    distributed directory of §6.2 — [dir_replicas] consecutive nodes
    starting at a hash of the key. *)
let dir_nodes_for t ~key =
  if not t.distributed_directory then dir_nodes t
  else begin
    let n = t.nodes in
    let h = key_hash key mod n in
    List.init (min t.dir_replicas n) (fun i -> (h + i) mod n)
  end

(** Default replica placement for bootstrap and creation: the owner plus
    the next [replication_degree - 1] nodes in ring order. *)
let default_replicas t ~owner =
  let readers =
    List.init
      (min (t.replication_degree - 1) (t.nodes - 1))
      (fun i -> (owner + i + 1) mod t.nodes)
  in
  Zeus_store.Replicas.v ~owner ~readers
