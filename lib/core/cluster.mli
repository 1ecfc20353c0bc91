(** A complete Zeus deployment inside one simulation: engine, fabric,
    reliable transport, membership service and one {!Node} per server.

    [populate] performs the initial sharding without messaging (objects are
    installed at the owner and its readers, metadata at the directory
    replicas), matching how every evaluated system starts from the same
    static sharding (§8). *)

open Zeus_store

type t

val create : ?config:Config.t -> ?tracing:bool -> unit -> t
(** [tracing] arms per-transaction span recording for the whole run. *)

val config : t -> Config.t
val engine : t -> Zeus_sim.Engine.t
val fabric : t -> Zeus_net.Fabric.t
val transport : t -> Zeus_net.Transport.t
val membership : t -> Zeus_membership.Service.t
val history : t -> History.t option

val telemetry : t -> Zeus_telemetry.Hub.t
(** The cluster-wide hub: shared phase histograms ([txn.*]) and the trace
    sink every agent reports into. *)

val trace : t -> Zeus_telemetry.Trace.t
val nodes : t -> int
val node : t -> int -> Node.t

val populate : t -> key:Types.key -> owner:int -> Value.t -> unit
(** Install one object (owner + readers per the replication degree, plus
    directory metadata), bypassing the protocols.  [value] is copied once;
    the replicas share that copy and the owner's {!Node.home_replicas}. *)

val populate_n : t -> n:int -> ?base:int -> owner_of:(int -> int) -> (int -> Value.t) -> unit
(** [populate_n ~n ~owner_of value_of] installs keys [base..base+n-1].
    Each node's table, and the directory on each node
    {!Config.dir_nodes_for} names, is first sized once to the highest key
    it receives (see {!Zeus_store.Table.reserve}).  [owner_of] must be
    pure: the sizing pass calls it too. *)

val live_nodes : t -> int list
(** Nodes currently alive at the fabric level (crash-stop state, not the
    membership view — the two disagree during the detection window). *)

val kill : t -> int -> unit
(** Crash a node.  Under [membership_mode = Oracle] the membership service
    reconfigures after detection + lease expiry by fiat; under [Detected]
    the crash is fabric-level only and reconfiguration happens iff the
    surviving nodes detect the heartbeat silence end-to-end. *)

val rejoin : t -> int -> unit

val run : t -> until_us:float -> unit
(** Advance virtual time. *)

val run_quiesce : t -> ?max_us:float -> unit -> unit
(** Run until no events remain or [max_us] of virtual time has passed.
    Suspends the membership service's standing heartbeat timers first
    (resume them with [Service.resume] to continue detecting). *)

val total_committed : t -> int
val total_aborted : t -> int
val total_ro_committed : t -> int

val digest : t -> string
(** One line that pins a run's behaviour:
    ["c<committed>/r<read-only committed>/a<aborted>/e<events>/t<clock>/m<messages>/b<bytes>"],
    with the engine's events dispatched, its clock as an exact hex float,
    and the fabric's messages and bytes sent.  Two runs of the same
    configuration, seed and load give the same line; a change that moves
    any of them moves it. *)

val check_invariants : t -> (unit, string) result
(** The paper's model-checked invariants (§8), evaluated on the current
    state (call at a quiescent point):
    - at most one live owner per key, agreeing with every live directory
      replica's applied metadata;
    - the live [t_state = Valid] replicas at the key's highest version
      hold identical data (a Valid copy below that version is not
      compared);
    - the owner holds the highest version of the object;
    - {!Zeus_store.Obj.dummy} and {!Zeus_ownership.Directory.dummy}, which
      every lookup miss returns, still hold their initial fields;
    plus, when history recording is on, the serializability checks of
    {!History.check}. *)
