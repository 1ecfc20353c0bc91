(** Sans-I/O core of the ownership protocol (§4).

    A pure state machine: {!step} consumes one {!input} (a protocol
    message, an API call, a timer fire, a view change) and leaves the
    ordered {!eff}s its runtime must execute — sends, timers, store
    updates, telemetry, caller unblocks — in the state's effect buffer
    ({!effects}).  No simulator, transport or telemetry handle appears
    anywhere in the state: the same code is driven by the simulator
    interpreter ({!Agent}), by bounded model checking over real states
    ({!Zeus_model.Core_harness}) and by input-log replay.

    {b Entry points.}  An interpreter feeds the per-message and per-timer
    paths through {!deliver}, {!api_request} and {!timer_fire} directly,
    and every other input through {!step}.  The {!input} variants exist for the model checker, the
    tests, input-log replay and io taps: [step] dispatches each to the
    same entry points, so there is one implementation either way, and an
    untapped interpreter builds no input record at all.

    Contract for interpreters:

    - sample {!env}, {!facts} and the clock {e before} feeding an input
      (they are the core's only window onto time, membership and the
      store);
    - between inputs an interpreter may reuse one {!env} record while its
      node's view and liveness stay the same, and one {!facts} record of
      its own, overwritten per input: the core keeps neither record past
      the step, only immutable values read from them ([f_o_ts],
      [f_snapshot], [live]);
    - execute the effects [step] appended {e in order, immediately}, then
      truncate them away — handlers never advance time, so in-order
      execution reproduces the pre-split agent's I/O sequence exactly;
    - use the buffer as a stack ({!Zeus_store.Outbox}): an {!Unblock}
      continuation may feed the same core again while its effects are
      being walked, and that nested input's slice sits above the outer
      one until it is truncated;
    - route timer fires back with the same {!timer_kind} that armed them;
    - keep feeding armed timers even across {!Reset} (crash-stop rejoin):
      stale timers deliberately survive and time out pre-crash callers.

    {!handle} is the list adapter ([step], then take the whole buffer) for
    the model checker, the tests and replay.

    {b Effect cells.}  An effect is valid only until the interpreter
    truncates it away: the core reuses its cells ({!Zeus_store.Outbox}).
    Every effect a steady-state input emits is a record with mutable
    fields, and each has an emitter in the core that takes a released cell
    of its kind out of the buffer's pool and overwrites it; a timer's cell
    is pooled by the kind of timer it arms, so its [kind] is refilled in
    place too.  So an input allocates only the messages it sends and the
    protocol state it keeps.  Whatever keeps an effect, or its timer
    kind, past the walk copies it: the list views of the buffer
    ({!handle}, io taps) hand out copies, and the agent's armed timers
    hold a kind of their own ({!copy_timer_kind}). *)

open Zeus_store

type config = {
  request_timeout_us : float;
  replay_after_us : float;
}

val default_config : config

(** Runtime environment: it changes only with the node's view or liveness,
    so an interpreter may sample it once per view.  Virtual time is passed
    with the inputs that read it ([now]). *)
type env = {
  epoch : int;
  live : bool array;
  self_alive : bool;
  trace_on : bool;
}

(** Store facts about the key an input concerns; [no_facts] for inputs
    that never consult the store.  Mutable so an interpreter can sample
    every input into one record of its own. *)
type facts = {
  mutable f_exists : bool;
  mutable f_o_ts : Ots.t;
  mutable f_is_owner : bool;
  mutable f_busy : bool;
  mutable f_snapshot : Messages.data_snapshot option;
}

val no_facts : facts
(** Shared: never write it; copy it ([{ no_facts with ... }]) for a
    record of one's own. *)

(** The fields of a timer kind and of the effects a steady-state input
    emits are mutable so the core can reuse their cells (see {b Effect
    cells} above): only the core writes them. *)
type timer_kind =
  | T_timeout of { mutable seq : int; mutable key : Types.key; mutable span : int }
  | T_cleanup of { mutable seq : int; mutable span : int }
  | T_replay of { mutable key : Types.key; mutable o_ts : Ots.t }

type counter = C_started | C_won | C_nacked | C_timeout | C_replays | C_driven
type outcome = Granted | Denied of Messages.nack_reason | Timeout

type telemetry =
  | Count of counter
  | Arb_latency of { mutable start : float; mutable stop : float }
      (** the winning round-trip, [stop -. start] µs *)
  | Span_start of
      { token : int; key : Types.key; kind : Messages.kind; driver : Types.node_id }
  | Span_finish of { token : int; outcome : outcome }
  | Span_forget of int

type eff =
  | Send of {
      mutable dst : Types.node_id;
      mutable size : int;
      mutable payload : Zeus_net.Msg.payload;
    }
  | Send_ack_local_data of {
      mutable dst : Types.node_id;
      mutable req_id : Messages.request_id;
      mutable key : Types.key;
      mutable o_ts : Ots.t;
      mutable new_replicas : Replicas.t;
      mutable arbiters : Types.node_id list;
      mutable epoch : int;
    }
      (** O_ack carrying this node's current snapshot of [key], taken by
          the interpreter at effect-execution time *)
  | Flush
  | Set_timer of { mutable token : int; after : float; kind : timer_kind }
  | Cancel_timer of { mutable token : int }
  | Apply_arbiter of {
      mutable key : Types.key;
      mutable kind : Messages.kind;
      mutable o_ts : Ots.t;
      mutable replicas : Replicas.t;
    }
  | Apply_requester of {
      mutable key : Types.key;
      mutable kind : Messages.kind;
      mutable o_ts : Ots.t;
      mutable replicas : Replicas.t;
      mutable data : Messages.data_snapshot option;
    }
  | Set_o_state of { mutable key : Types.key; mutable o_state : Types.o_state }
  | Restore_request_state of { mutable key : Types.key }
  | Drop_dead_replicas of { live : bool array }
  | Notify_request of
      { mutable key : Types.key; mutable kind : Messages.kind; mutable requester : Types.node_id }
  | Notify_owner_change of { mutable key : Types.key; mutable owner : Types.node_id }
  | Unblock of { mutable seq : int; mutable result : (unit, Messages.nack_reason) result }
  | Telemetry of telemetry

type input =
  | Deliver of
      { src : Types.node_id; payload : Zeus_net.Msg.payload; facts : facts;
        env : env; now : float }
  | Api_request of
      { key : Types.key; kind : Messages.kind; facts : facts; env : env; now : float }
  | Api_register of { key : Types.key; replicas : Replicas.t; env : env }
  | Api_forget of { key : Types.key; env : env }
  | Api_seed of { key : Types.key; replicas : Replicas.t }
  | Api_recovery_done of { epoch : int; env : env }
  | Timer_fire of { token : int; kind : timer_kind; facts : facts; env : env }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

type state

val create : ?config:config -> self:Types.node_id -> nodes:int -> unit -> state

val step : dir:(Types.key -> Types.node_id list) -> state -> input -> unit
(** Process one input, appending its effects to {!effects} in execution
    order; the state is mutated in place.  [dir] is the (static)
    directory-placement function, passed per call; the state holds it only
    while the input is stepped.  [Deliver] and [Api_request] go to
    {!deliver} and {!api_request}. *)

val deliver :
  dir:(Types.key -> Types.node_id list) ->
  state ->
  env:env ->
  now:float ->
  facts:facts ->
  Zeus_net.Msg.payload ->
  unit
(** [step] of a [Deliver] with these fields (its [src] is not read). *)

val api_request :
  dir:(Types.key -> Types.node_id list) ->
  state ->
  env:env ->
  now:float ->
  facts:facts ->
  key:Types.key ->
  kind:Messages.kind ->
  unit
(** [step] of an [Api_request] with these fields. *)

val timer_fire :
  dir:(Types.key -> Types.node_id list) -> state -> env:env -> facts:facts -> timer_kind -> unit
(** [step] of a [Timer_fire] with these fields (its [token] is not read). *)

val effects : state -> eff Outbox.t
(** The state's effect buffer: what {!step} appended and the interpreter
    has not yet truncated. *)

val copy_timer_kind : timer_kind -> timer_kind
(** A fresh timer kind equal to the argument. *)

val handle :
  dir:(Types.key -> Types.node_id list) -> state -> input -> state * eff list
(** [step], then {!Zeus_store.Outbox.take} the buffer: the effects as a
    list, for callers that keep none in the buffer between inputs.  The
    returned state is the argument. *)

val directory : state -> Directory.t
val next_seq : state -> int
(** The seq the next {!Api_request} will use — interpreters register the
    caller's continuation under it before feeding the input. *)

val has_replay : state -> Types.key -> bool
(** An arb-replay for [key] is in flight (interpreters use it to decide
    whether an incoming O_ack needs [f_snapshot] sampled). *)

val pending_ts : state -> Types.key -> Ots.t option
(** The [o_ts] of the arbitration this node holds pending for [key]
    (directory entry or side-buffer), if any — the model checker uses it
    to decide which armed replay timers are meaningful to fire. *)

val handles_payload : Zeus_net.Msg.payload -> bool

(** {2 Request routing}

    The node-list walks of the request path, allocating nothing but the
    list they return; exposed so tests can hold them to their list-built
    definitions. *)

val pick_driver :
  live:bool array -> self:Types.node_id -> rr:int -> Types.node_id list -> Types.node_id
(** The driver a requester that does not drive its own request picks:
    among the live nodes of the directory list, those other than [self]
    (all of them when [self] is the only live one), the [rr mod n]-th of
    the [n], duplicates counted.  At least one node of the list must be
    live. *)

val arbiters :
  live:bool array ->
  dirs:Types.node_id list ->
  owner:Types.node_id option ->
  data_from:Types.node_id option ->
  kind:Messages.kind ->
  requester:Types.node_id ->
  Types.node_id list
(** The arbiter set a driver stamps on a request: the live directory
    nodes in order, then the owner if live, the data source, and the
    target of a [Remove_reader] if live — each node once, at its first
    place, and never the requester. *)

val copy : state -> state
(** Deep copy, for branching exploration. *)

val fingerprint : state -> string
(** Canonical dump: tables in ascending key order, timer/span tokens reduced
    to presence bits — states differing only in allocation history
    collapse together. *)
