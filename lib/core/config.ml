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
  pipeline_depth : int;      (** max in-flight reliable commits per thread *)
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
          [Zeus_net.Transport.flush_window_us] into multi-payload frames with
          cumulative acks — set [Zeus_net.Transport.unbatched] for one
          payload and one standalone ack per frame (the transport
          ablation; model checking does not use the transport) *)
  ownership : Zeus_ownership.Agent.config;
  commit_clear_marks : Zeus_commit.Core.clear_marks;
      (** follower-side R-VAL discipline; [Sequenced] (default) carries
          ordering in the messages and stays live on reordering links,
          [Legacy] is the historical arrival-order scheme that leans on
          per-link FIFO delivery *)
  membership_mode : Zeus_membership.Service.mode;
      (** [Oracle] (default): the membership service is told about crashes
          and installs the excluding view after the membership service's
          detection delay plus one lease by fiat.  [Detected]: failures
          are detected end-to-end — heartbeat silence, quorum suspicion,
          lease expiry, fencing — per [detection] below. *)
  detection : Zeus_membership.Detector.config;
      (** heartbeat period and adaptive suspicion timeout bounds; only
          read in [Detected] mode *)
  seed : int64;
}

let default =
  {
    nodes = 3;
    replication_degree = 3;
    dir_replicas = 3;
    app_threads = 10;
    pipeline_depth = 32;
    auto_trim = true;
    distributed_directory = false;
    record_history = false;
    locality = Zeus_locality.Engine.default_config;
    fabric = Zeus_net.Fabric.default_config;
    transport = Zeus_net.Transport.default_config;
    ownership = Zeus_ownership.Agent.default_config;
    commit_clear_marks = Zeus_commit.Core.Sequenced;
    membership_mode = Zeus_membership.Service.Oracle;
    detection = Zeus_membership.Detector.default_config;
    seed = 42L;
  }

(* Calibrated constants: the paper's one testbed (§8), varied by no
   experiment. *)

let ds_threads = 10
let msg_proc_us = 0.30
let byte_proc_us = 0.0008
let local_commit_us = 0.25
let txn_dispatch_us = 0.15
let ownership_dispatch_us = 28.0
let backoff_base_us = 3.0
let backoff_max_us = 400.0
let max_retries = 12

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
