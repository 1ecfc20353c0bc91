(** A Zeus node: object table + ownership agent + reliable-commit agent +
    datastore worker pool, exposing the transactional-memory API of §7.

    Transactions are written in continuation-passing style because an open
    may block the application thread on an ownership request (§3.2) — the
    only blocking point in Zeus.  A body receives a [ctx] and a [commit]
    thunk:

    {[
      Node.run_write node ~thread:0 ~exec_us:1.0
        ~body:(fun ctx commit ->
          Node.read ctx account_a (fun a ->
            Node.read ctx account_b (fun b ->
              Node.write ctx account_a Value.(of_int (to_int a - 10)) (fun () ->
                Node.write ctx account_b Value.(of_int (to_int b + 10)) (fun () ->
                  commit ())))))
        (fun outcome -> ...)
    ]}

    Failed operations (lock conflict, ownership NACK) short-circuit: the
    pending continuations are dropped and the runner retries the whole body
    with exponential back-off (§6.2), reporting [Aborted] only after
    [max_retries].  [k Committed] fires at {e local} commit — replication is
    pipelined and never blocks the thread (§5.2).

    As on real worker threads, at most one transaction should be in flight
    per [thread] at a time: issue the next one from the previous one's
    continuation (the closed-loop drivers in {!Zeus_workload.Driver} do
    exactly this).  Each thread's transactions run in one reused slot, so
    the steady-state transaction allocates nothing here; a second
    transaction issued on a thread whose slot is busy still runs, in a
    slot of its own. *)

open Zeus_store

type t

val create :
  ?telemetry:Zeus_telemetry.Hub.t ->
  config:Config.t ->
  id:Types.node_id ->
  transport:Zeus_net.Transport.t ->
  membership:Zeus_membership.Service.t ->
  history:History.t option ->
  unit ->
  t

val id : t -> Types.node_id
val table : t -> Table.t

val home_replicas : t -> Replicas.t
(** {!Config.default_replicas} with this node as owner, computed once: every
    object the node owns at bootstrap ({!Cluster.populate}) or creates
    shares this one immutable set. *)

val engine : t -> Zeus_sim.Engine.t
val config : t -> Config.t
val ownership_agent : t -> Zeus_ownership.Agent.t
val commit_agent : t -> Zeus_commit.Agent.t

(** The predictive locality engine, when [config.locality.enabled];
    [None] means placement is exactly the seed's reactive behaviour. *)
val locality : t -> Zeus_locality.Engine.t option
val ds : t -> Zeus_sim.Resource.t
val is_alive : t -> bool

val reset : t -> unit
(** Fresh-incarnation reset used by {!Cluster.rejoin}: a node that returns
    after a crash knows nothing (crash-stop, §3.1) — it re-learns objects
    through the ownership and commit protocols. *)

val set_app_handler : t -> (src:Types.node_id -> Zeus_net.Msg.payload -> unit) -> unit
(** Receive application-level messages (after protocol dispatch), already
    charged to the datastore worker pool. *)

type front = ..
type front += No_front

val front : t -> front
val set_front : t -> front -> unit
(** The node's transaction front-end state ([No_front] until set), such
    as {!Zeus_workload.Spec}'s pool of cursors: kept on the node, it is
    never shared with a cluster run on another domain and goes away with
    the node. *)

(** {1 Transactions} *)

type ctx
(** One attempt's handle.  A [ctx] and the [commit] thunk handed with it
    are valid only during the attempt they were handed to: [Node] reuses
    both, for the thread's later attempts and transactions, once the
    attempt fails or the transaction finishes.  Keep neither past that
    point, and issue one operation at a time, each from the previous
    one's continuation: an operation waiting for ownership parks in the
    slot. *)

val run_write :
  t ->
  thread:int ->
  exec_us:float ->
  body:(ctx -> (unit -> unit) -> unit) ->
  (Txn.outcome -> unit) ->
  unit
(** [exec_us] models the transaction's compute time on the app thread. *)

val run_read :
  t ->
  thread:int ->
  exec_us:float ->
  body:(ctx -> (unit -> unit) -> unit) ->
  (Txn.outcome -> unit) ->
  unit
(** Read-only transaction: local on any replica, no replication (§5.3). *)

val slot : t -> thread:int -> ctx
(** The slot [thread]'s transactions run in while it is free: a value a
    front end can start a pooled record's [ctx] field at.  Operate only
    on the [ctx] a body is handed. *)

val read : ctx -> Types.key -> (Value.t -> unit) -> unit
val write : ctx -> Types.key -> Value.t -> (unit -> unit) -> unit

val read_write : ctx -> Types.key -> (Value.t -> Value.t) -> (Value.t -> unit) -> unit
(** Read-modify-write sugar; the continuation receives the new value. *)

val insert : ctx -> Types.key -> Value.t -> unit
(** [malloc] + initialize: visible at commit; replicas per
    {!Config.default_replicas}. *)

val delete : ctx -> Types.key -> (unit -> unit) -> unit

(** {1 Sharding control} *)

val acquire_ownership : t -> Types.key -> ((unit, Zeus_ownership.Messages.nack_reason) result -> unit) -> unit
(** Explicitly migrate an object to this node outside any transaction
    (bulk re-sharding, as in the Voter experiments §8.4).  Blocks the
    caller for the request's 1.5 RTT. *)

val add_reader : t -> Types.key -> ((unit, Zeus_ownership.Messages.nack_reason) result -> unit) -> unit

val role : t -> Types.key -> Types.role option

(** {1 Statistics} *)

val committed : t -> int
val aborted : t -> int
val ro_committed : t -> int
val retries : t -> int

(** Committed write transactions that needed at least one ownership request
    (the x-axis of Figures 8 and 9). *)
val txns_with_ownership : t -> int
val ownership_latency : t -> Zeus_sim.Stats.Samples.t
