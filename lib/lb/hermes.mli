(** Hermes-style replicated key-value store (§3.1).

    Zeus' application-level load balancer keeps its key→destination map in
    a small replicated KV based on Hermes [Katsarakis et al., ASPLOS '20]:
    broadcast-based invalidations give linearizable single-key writes from
    {e any} replica in one round trip, and reads are always local.

    Protocol per write: the coordinating replica stamps the key with a
    logical timestamp [(version + 1, node)], INVs all other replicas
    (which buffer the new value and stop serving the key), collects ACKs,
    then VALs.  Lexicographically larger timestamps win concurrent writes;
    INVs are idempotent, so a replica that misses a VAL re-ACKs on the
    retransmitted INV. *)

open Zeus_store

type t

val create : node:Types.node_id -> replicas:Types.node_id list -> Zeus_net.Transport.t -> t
(** One replica agent.  [replicas] lists every replica (including [node]).
    The agent does not install transport handlers; route payloads to
    {!handle}. *)

val node : t -> Types.node_id

val write : t -> key:Types.key -> Value.t -> (unit -> unit) -> unit
(** Linearizable write coordinated by this replica; the continuation fires
    when the write is committed (all replicas invalidated) or superseded
    by a higher-timestamped write.  A second local write to a key whose
    first is still pending coalesces with it: the first's continuation
    fires first, when the second commits or is superseded. *)

val read : t -> Types.key -> Value.t option
(** Local read; [None] while the key is invalid (a write is in flight) or
    absent. *)

val read_wait : t -> Types.key -> (Value.t option -> unit) -> unit
(** Local read that retries briefly while the key is invalid. *)

val handle : t -> src:Types.node_id -> Zeus_net.Msg.payload -> bool

val keys : t -> int
val writes_committed : t -> int
