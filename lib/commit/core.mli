(** Sans-I/O core of the reliable commit protocol (§5).

    A pure state machine mirroring {!Zeus_ownership.Core}: {!handle}
    consumes one {!input} and returns the ordered {!eff} list its runtime
    must execute.  Store access is inverted in both directions: reads
    arrive pre-sampled inside the input (the [replica_sets] of an
    {!Api_commit}), writes leave as three coarse store transforms
    ({!Validate_local}, {!Apply_writes}, {!Validate_stored}) whose
    per-update loops {!Agent.apply_store} runs against a real
    {!Zeus_store.Table}, in the simulator and under the checker.

    Contract for interpreters: sample {!env} before calling [handle] and
    execute the returned effects in order, immediately.  Unlike the
    ownership core there are no timers and no per-key facts — commit
    state is entirely protocol-side.

    {b State representation.}  A steady-state input touches only
    monomorphic, int-indexed state.  Coordinator pipelines sit in an array
    by thread, follower pipes in an array by coordinator node, then
    thread.  Within a pipe, the open slots, the stored and the buffered
    R-INVs and the clear marks are each a {!Window}: a power-of-two ring
    indexed by slot, which grows when the band of live slots outgrows it.
    Absent entries are constant sentinels, so a lookup neither hashes nor
    allocates.  Only the crash path's replays live in a map, ordered by
    [tx].  The input's [env] and the effects it produces are kept in the
    state while it is handled, and the effect list is built once, in
    order, when it returns; a pipeline's [pipe_id] is shared by all its
    slots and an R-ACK reuses its R-INV's [tx]. *)

open Zeus_store

(** Runtime environment sampled once per input. *)
type env = { epoch : int; live : bool array; trace_on : bool }

type counter = C_started | C_durable | C_replays

type telemetry =
  | Count of counter
  | Span_start of
      { token : int; thread : int; slot : int; followers : int; writes : int }
  | Span_finish of int

type eff =
  | Send of { dst : Types.node_id; size : int; payload : Zeus_net.Msg.payload }
  | Flush
  | Validate_local of { writes : Txn.update list }
      (** coordinator durable: per update, release the [pending_rc]
          pipelining guard; on version match, freed objects are removed
          (firing the runtime's [on_freed]) and unchanged ones
          revalidate *)
  | Apply_writes of { install : bool; writes : Txn.update list }
      (** follower applies an R-INV version-monotonically; [install]
          unknown objects only outside replay *)
  | Validate_stored of { writes : Txn.update list }
      (** follower R-VAL: version-equal objects revalidate or complete
          their free *)
  | Durable of { tx : Messages.tx_id }
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
      replica_sets : Types.node_id list list;
          (** per update, in order: [Replicas.all] of the object's
              owner-held [o_replicas]; [[]] when the object or its
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
val handle : state -> input -> state * eff list

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
