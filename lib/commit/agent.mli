(** Per-node agent of the reliable commit protocol (§5).

    {b Coordinator side.}  After a successful local commit, {!commit} opens
    a slot in the calling thread's pipeline and broadcasts R-INV (with the
    new [(t_version, t_data)] of every modified object) to the transaction's
    followers — the readers of the modified objects.  The application is
    {e never} blocked: subsequent transactions on the same objects proceed
    immediately (§5.2).  When every live follower has R-ACKed, the
    coordinator validates locally ([t_state = Valid] iff the version is
    unchanged, i.e. no newer pipelined transaction rewrote the object) and
    broadcasts R-VAL.

    {b Follower side.}  R-INVs apply version-monotonically and in pipeline
    order: slot [s] applies only once slot [s - 1] is known cleared — by
    having been applied here, by an R-VAL, or by the piggybacked [prev_val]
    bit for partial-stream followers.  Applied R-INVs are held until R-VAL
    for replay (§5.1).

    {b Recovery.}  When the membership excludes a coordinator, every
    follower re-drives the {e applied} R-INVs of the dead node's pipelines
    (idempotent, thanks to version checks) and reports to the ownership
    layer once drained, which un-gates ownership requests for the dead
    node's objects. *)

open Zeus_store

type callbacks = {
  on_freed : Types.key -> unit;
      (** coordinator side: a freed object finished replicating — release
          any external metadata (e.g. the ownership directory entry) *)
  recovery_drained : epoch:int -> unit;
      (** all pending reliable commits from coordinators that died in
          [epoch]'s reconfiguration have been drained at this node *)
}

type t

val create :
  ?telemetry:Zeus_telemetry.Hub.t ->
  ?clear_marks:Core.clear_marks ->
  node:Types.node_id ->
  table:Table.t ->
  membership:Zeus_membership.Service.t ->
  callbacks:callbacks ->
  Zeus_net.Transport.t ->
  t
(** [clear_marks] (default {!Core.Sequenced}) selects the follower-side
    R-VAL discipline — see {!Core.clear_marks}. *)

val node : t -> Types.node_id

val commit :
  ?parent:Zeus_telemetry.Trace.span ->
  t ->
  thread:int ->
  updates:Txn.update list ->
  ?on_durable:(unit -> unit) ->
  unit ->
  unit
(** Start the reliable commit of a locally committed transaction.  The
    updates must all be to objects this node owns ([t_state = Write],
    versions already bumped by {!Zeus_store.Txn.local_commit}).
    [on_durable] fires when the transaction is reliably committed (all
    followers acked) — callers use it for replication-lag metrics and
    post-replication actions, never to block the application.  With
    tracing enabled, each replicated slot records a ["replication_ack"]
    span (R-INV broadcast to last follower ACK) under [parent]. *)

val handle : t -> src:Types.node_id -> Zeus_net.Msg.payload -> bool

val reset : t -> unit
(** Fresh-incarnation reset for a rejoining node. *)

val inflight : t -> int
(** Coordinator-side slots not yet validated. *)

val stored_invs : t -> int
(** Follower-side R-INVs held for replay. *)

val buffered_invs : t -> int
(** Follower-side R-INVs buffered behind an unhandled predecessor slot. *)

val replays_started : t -> int

val metrics : t -> Zeus_telemetry.Metrics.t
(** The agent's typed registry (counters under ["commit."]). *)

(** {2 The store} *)

val apply_store : Table.t -> on_freed:(Types.key -> unit) -> Core.eff -> unit
(** Applies a store effect ([Validate_local], [Apply_writes],
    [Validate_stored]) to one node's table, calling [on_freed] for each
    freed object the coordinator removes; ignores the rest.  The model
    checker runs it on its own tables. *)

(** Record / replay *)

val set_io_tap : t -> (Core.input -> Core.eff list -> unit) -> unit
(** Observe every (input, effects) pair fed through the sans-I/O core, in
    order.  Inputs embed their sampled [env] (and, for [Api_commit], the
    pre-sampled replica sets), so a recorded sequence replayed into a
    fresh {!Core.state} reproduces the same states and effect lists
    deterministically. *)

val core_fingerprint : t -> string
(** {!Core.fingerprint} of the live core (replay-equivalence checks). *)
