(** A Zeus node: object table + ownership agent + reliable-commit agent +
    datastore worker pool, exposing the transactional-memory API of §7.

    Transactions are written in continuation-passing style because an open
    may block the application thread on an ownership request (§3.2) — the
    only blocking point in Zeus.  A body receives a [ctx] and a [commit]
    thunk:

    {[
      Node.run_write node ~thread:0
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

    As on real worker threads, at most one transaction may be in flight per
    [thread] at a time: issue the next one from the previous one's
    continuation (the closed-loop drivers in {!Zeus_workload.Driver} do
    exactly this). *)

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

(** {1 Transactions} *)

type ctx

val run_write :
  t ->
  thread:int ->
  ?exec_us:float ->
  body:(ctx -> (unit -> unit) -> unit) ->
  (Txn.outcome -> unit) ->
  unit
(** [exec_us] models the transaction's compute time on the app thread. *)

val run_read :
  t ->
  thread:int ->
  ?exec_us:float ->
  body:(ctx -> (unit -> unit) -> unit) ->
  (Txn.outcome -> unit) ->
  unit
(** Read-only transaction: local on any replica, no replication (§5.3). *)

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
