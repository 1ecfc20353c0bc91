(** Sans-I/O core of the reliable commit protocol (§5).

    A pure state machine mirroring {!Zeus_ownership.Core}: {!step}
    consumes one {!input} and leaves the ordered {!eff}s its runtime must
    execute in the state's effect buffer ({!effects}).  Store access is
    inverted in both directions: reads arrive with the input (the replica
    set of each update an {!Api_commit} writes), writes leave as three coarse
    store transforms ({!Validate_local}, {!Apply_writes},
    {!Validate_stored}) whose per-update loops {!Agent.apply_store} runs
    against a real {!Zeus_store.Table}, in the simulator and under the
    checker.

    {b Entry points.}  An interpreter feeds messages and commits through
    {!deliver} and {!api_commit} directly, and view changes and resets
    through {!step}.  The {!input} variants exist for the model checker,
    the tests, input-log replay and io taps: [step] dispatches each to the
    same code, so there is one implementation either way, and an untapped
    interpreter builds no input record and no replica-set list.

    Contract for interpreters: sample {!env} before feeding an input and
    execute the effects it appended, in order, immediately, then truncate
    them away — the stack discipline of {!Zeus_store.Outbox}, since a
    {!Durable} continuation may feed the same core again before the walk
    ends.  Between inputs an interpreter may reuse one {!env} record while
    its node's view stays the same; the core keeps no [env] past the step.
    {!handle} is the list adapter ([step], then take the whole buffer) for
    the model checker, the tests and replay; it expects an empty buffer.
    Unlike the ownership core there are no timers and no per-key facts —
    commit state is entirely protocol-side.

    {b Effect cells.}  An effect is valid only until the interpreter
    truncates it away: the core reuses its cells ({!Zeus_store.Outbox}).
    The effects a steady-state input emits ({!Send}, {!Validate_local},
    {!Apply_writes}, {!Validate_stored}, {!Durable}) are records with
    mutable fields, each with an emitter in the core that takes a released
    cell of its kind out of the buffer's pool and overwrites it, so an
    input allocates only the messages it sends and the protocol state it
    keeps.  The list views of the buffer ({!handle}, io taps) hand out
    copies.

    {b State representation.}  A steady-state input touches only
    monomorphic, int-indexed state.  Coordinator pipelines sit in an array
    by thread, follower pipes in an array by coordinator node, then
    thread.  Within a pipe, the open slots, the stored and the buffered
    R-INVs and the clear marks are each a {!Window}: a power-of-two ring
    indexed by slot, which grows when the band of live slots outgrows it.
    Absent entries are constant sentinels, so a lookup neither hashes nor
    allocates.  Only the crash path's replays live in a map, ordered by
    [tx].  The input's [env] is kept in the state while it is stepped; a
    pipeline's [pipe_id] is shared by all its slots and an R-ACK reuses
    its R-INV's [tx]. *)

open Zeus_store

(** Runtime environment sampled once per input. *)
type env = { epoch : int; live : bool array; trace_on : bool }

type counter = C_started | C_durable | C_replays

type telemetry =
  | Count of counter
  | Span_start of
      { token : int; thread : int; slot : int; followers : int; writes : int }
  | Span_finish of int

(** The fields of the effects a steady-state input emits are mutable so
    the core can reuse their cells (see {b Effect cells} above): only the
    core writes them. *)
type eff =
  | Send of {
      mutable dst : Types.node_id;
      mutable size : int;
      mutable payload : Zeus_net.Msg.payload;
    }
  | Flush
  | Validate_local of { mutable writes : Txn.update list }
      (** coordinator durable: per update, release the [pending_rc]
          pipelining guard; on version match, freed objects are removed
          (firing the runtime's [on_freed]) and unchanged ones
          revalidate *)
  | Apply_writes of { mutable install : bool; mutable writes : Txn.update list }
      (** follower applies an R-INV version-monotonically; [install]
          unknown objects only outside replay *)
  | Validate_stored of { mutable writes : Txn.update list }
      (** follower R-VAL: version-equal objects revalidate or complete
          their free *)
  | Durable of { mutable tx : Messages.tx_id }
      (** the [on_durable] continuation registered for this slot fires *)
  | Drained of { epoch : int }
      (** every dead coordinator's stored R-INVs are drained
          ([recovery_drained]) *)
  | Telemetry of telemetry

type input =
  | Deliver of { src : Types.node_id; payload : Zeus_net.Msg.payload; env : env }
  | Api_commit of {
      thread : int;
      updates : Txn.update list;
      replica_sets : Replicas.t list;
          (** per update, in order: the object's owner-held
              [o_replicas]; {!Replicas.none} when the object or its
              replica set is absent *)
      has_durable : bool;
      env : env;
    }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

type state

(** How a follower interprets R-VAL clear marks.

    [Sequenced] (default): ordering is carried by the messages themselves —
    R-VALs clear exactly the slots their sender can vouch for (their own
    slot plus the carried [upto] watermark), a VAL reaching a node with no
    state for its pipe is adopted (creating the pipe) under the same epoch
    fence as R-INVs, and buffered R-INVs drain on explicit slot marks.
    The protocol is live under arbitrary per-link reordering
    ([Zeus_net.Transport.unordered], multipath fabrics).

    [Legacy]: the historical arrival-order discipline — a VAL jumps the
    watermark to its own slot and unknown-pipe VALs are dropped — which is
    only live when each link delivers in order (the RDMA RC assumption of
    §3.1).  Kept as a compat knob so the model checker can pin the known
    VAL-overtakes-first-INV deadlock as a negative control. *)
type clear_marks = Legacy | Sequenced

val create : ?clear_marks:clear_marks -> self:Types.node_id -> nodes:int -> unit -> state
val step : state -> input -> unit
(** Process one input, appending its effects to {!effects} in execution
    order; the state is mutated in place. *)

val deliver : state -> env:env -> src:Types.node_id -> Zeus_net.Msg.payload -> unit
(** [step] of a [Deliver] with these fields. *)

val api_commit :
  state ->
  env:env ->
  thread:int ->
  updates:Txn.update list ->
  replicas_of:(Types.key -> Replicas.t) ->
  has_durable:bool ->
  unit
(** [step] of an [Api_commit] whose [replica_sets] are [replicas_of] of
    each update's key: the owner-held [o_replicas] of the object, or
    {!Replicas.none}.  The core calls it once per update, in order, during
    this call only, and walks each set owner first, then readers —
    {!Replicas.all}'s order — so the followers, and the R-INVs sent to
    them, come out as [step] would make them. *)

val effects : state -> eff Outbox.t
(** The state's effect buffer: what {!step} appended and the interpreter
    has not yet truncated. *)

val handle : state -> input -> state * eff list
(** [step], then {!Zeus_store.Outbox.take} the buffer: the effects as a
    list, for callers that keep none in the buffer between inputs.  The
    returned state is the argument. *)

val peek_slot : state -> thread:int -> int
(** The slot the next {!Api_commit} on [thread] will occupy — interpreters
    register the caller's [on_durable] continuation under that slot of
    the thread before feeding the input. *)

val handles_payload : Zeus_net.Msg.payload -> bool

val inflight : state -> int
(** Coordinator-side open slots (all pipelines). *)

val stored_invs : state -> int
(** Follower-side stored R-INVs awaiting validation. *)

val buffered_invs : state -> int
(** Follower-side R-INVs buffered behind an unhandled predecessor slot —
    permanently nonzero at quiescence means the reordering deadlock. *)

val replaying_count : state -> int
(** Dead-coordinator slots this node is currently re-driving. *)

val recovering_epoch : state -> int option
(** The epoch whose drain is still outstanding, if any ({!Drained} has not
    fired yet). *)

val copy : state -> state
(** Deep copy, for branching exploration. *)

val fingerprint : state -> string
(** Canonical dump: every table in ascending key order, span tokens
    dropped — states differing only in allocation history (ring sizes,
    token counters) collapse together. *)
