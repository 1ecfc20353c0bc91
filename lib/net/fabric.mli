(** Unreliable intra-datacenter message fabric.

    Models the cluster network of the paper's testbed: a one-way base
    latency, a serialization cost proportional to message size (link
    bandwidth), and optional fault injection — probabilistic loss,
    duplication, extra reordering delay — plus crash-stop nodes and
    two-sided partitions.  Delivery invokes the destination's handler at the
    (virtual) arrival time; charging receive CPU is the receiver's job. *)

type config = {
  base_latency_us : float;  (** one-way propagation + switching delay *)
  jitter_us : float;        (** uniform extra delay in [0, jitter] *)
  bandwidth_gbps : float;   (** per-link serialization rate *)
  loss_prob : float;        (** probability a message is dropped *)
  dup_prob : float;         (** probability a message is delivered twice *)
  delay_prob : float;
      (** probability of an extra straggler delay (formerly
          [reorder_prob]); an ordered transport's OOO window re-orders the
          straggler away, so this models jitter, {e not} permutation *)
  delay_extra_us : float;   (** magnitude of that extra delay *)
  permute_prob : float;
      (** probability a message {e overtakes} the latest in-flight message
          on its directed link (lands uniformly inside the in-flight
          horizon) — true per-link delivery permutation, visible to the
          application through [Transport.unordered] or the legacy
          unbatched transport *)
}

val default_config : config
(** 40 Gbps links, 4 µs one-way latency, no fault injection — the paper's
    switch fabric in good health. *)

type t

val create : Zeus_sim.Engine.t -> nodes:int -> config -> t
(** Raises [Invalid_argument] when [nodes <= 0] or the config is
    malformed: any probability outside [0, 1], a negative latency/jitter/
    delay, or a non-positive bandwidth. *)

val engine : t -> Zeus_sim.Engine.t
val nodes : t -> int
val config : t -> config

val set_handler : t -> Msg.node_id -> (src:Msg.node_id -> Msg.payload -> unit) -> unit
(** Install the receive handler for a node.  Replaces any previous one. *)

val send : t -> src:Msg.node_id -> dst:Msg.node_id -> ?size:int -> Msg.payload -> unit
(** Fire-and-forget.  [size] in bytes (default 64, a small protocol
    message).  Self-sends are delivered with negligible latency and no
    fault injection. *)

val crash : t -> Msg.node_id -> unit
(** Crash-stop: all traffic to and from the node is silently dropped, and
    its handler never fires again (until [recover]). *)

val recover : t -> Msg.node_id -> unit
val is_alive : t -> Msg.node_id -> bool

val partition : t -> Msg.node_id -> Msg.node_id -> unit
(** Symmetric partition between two nodes. *)

val heal : t -> Msg.node_id -> Msg.node_id -> unit

val partition_oneway : t -> src:Msg.node_id -> dst:Msg.node_id -> unit
(** One-sided partition: messages [src]->[dst] are dropped while the
    reverse direction keeps flowing (asymmetric link failure — the chaos
    schedules' nastiest primitive, since acks die while data survives). *)

val heal_oneway : t -> src:Msg.node_id -> dst:Msg.node_id -> unit

val heal_all : t -> unit
(** Removes every symmetric and one-sided partition. *)

(** {2 Runtime perturbation (chaos injection)}

    Unlike {!config} fault injection — fixed for the fabric's lifetime —
    these knobs are flipped mid-run by a nemesis: a link-quality spike
    adds loss/duplication probability and a flat delay to every message
    while armed, and a slow ("gray") node multiplies the latency of every
    message it sends or receives without failing outright.  When disabled
    they change neither behaviour nor the rng draw sequence. *)

type perturb = {
  p_loss : float;      (** added to [loss_prob] while armed *)
  p_dup : float;       (** added to [dup_prob] while armed *)
  p_delay_us : float;  (** flat extra one-way delay while armed *)
}

val set_perturb : t -> perturb option -> unit

val set_scramble : t -> float -> unit
(** Runtime add-on to [permute_prob] while a scramble fault is armed
    ([0.0] disarms; raises [Invalid_argument] outside [0, 1]).  Kept
    separate from {!set_perturb} so a delivery-order scramble can overlap
    a link-quality spike.  Disabled it costs no rng draw. *)

val scramble : t -> float

val set_slow : t -> Msg.node_id -> float -> unit
(** Latency multiplier for every message to or from the node (clamped to
    [>= 1.0]); [1.0] restores full speed. *)

val slow_factor : t -> Msg.node_id -> float

(** Traffic accounting (for the paper's bandwidth comparisons). *)

val messages_sent : t -> int
val bytes_sent : t -> int
val messages_dropped : t -> int
val reset_counters : t -> unit
