(** Sans-I/O core of the ownership protocol (§4).

    A pure state machine: {!handle} consumes one {!input} (a protocol
    message, an API call, a timer fire, a view change) and returns the
    ordered {!eff} list its runtime must execute — sends, timers, store
    callbacks, telemetry, caller unblocks.  No simulator, transport or
    telemetry handle appears anywhere in the state: the same code is driven
    by the simulator interpreter ({!Agent}), by bounded model checking over
    real states ({!Zeus_model.Core_harness}) and by input-log replay.

    Contract for interpreters:

    - sample {!env} and {!facts} {e before} calling [handle] (they are the
      core's only window onto time, membership and the store);
    - execute the returned effects {e in order, immediately}, before
      feeding the next input — handlers never advance time, so in-order
      execution reproduces the pre-split agent's I/O sequence exactly;
    - route timer fires back with the same {!timer_kind} that armed them;
    - keep feeding armed timers even across {!Reset} (crash-stop rejoin):
      stale timers deliberately survive and time out pre-crash callers. *)

open Zeus_store

type config = {
  request_timeout_us : float;
  replay_after_us : float;
  replay_sweep_us : float;
}

val default_config : config

(** Runtime environment sampled once per input. *)
type env = {
  now : float;
  epoch : int;
  live : bool array;
  self_alive : bool;
  trace_on : bool;
}

(** Store facts about the key an input concerns; [no_facts] for inputs
    that never consult the store. *)
type facts = {
  f_exists : bool;
  f_o_ts : Ots.t;
  f_is_owner : bool;
  f_busy : bool;
  f_snapshot : Messages.data_snapshot option;
}

val no_facts : facts

type timer_kind =
  | T_timeout of { seq : int; key : Types.key; span : int }
  | T_cleanup of { seq : int; span : int }
  | T_replay of { key : Types.key; o_ts : Ots.t }

type counter = C_started | C_won | C_nacked | C_timeout | C_replays | C_driven
type outcome = Granted | Denied of Messages.nack_reason | Timeout

type telemetry =
  | Count of counter
  | Arb_latency of float
  | Span_start of
      { token : int; key : Types.key; kind : Messages.kind; driver : Types.node_id }
  | Span_finish of { token : int; outcome : outcome }
  | Span_forget of int

type eff =
  | Send of { dst : Types.node_id; size : int; payload : Zeus_net.Msg.payload }
  | Send_ack_local_data of {
      dst : Types.node_id;
      req_id : Messages.request_id;
      key : Types.key;
      o_ts : Ots.t;
      new_replicas : Replicas.t;
      arbiters : Types.node_id list;
      epoch : int;
    }
      (** O_ack carrying this node's current snapshot of [key], taken by
          the interpreter at effect-execution time *)
  | Flush
  | Set_timer of { token : int; after : float; kind : timer_kind }
  | Cancel_timer of int
  | Apply_arbiter of {
      key : Types.key;
      kind : Messages.kind;
      o_ts : Ots.t;
      replicas : Replicas.t;
      requester : Types.node_id;
    }
  | Apply_requester of {
      key : Types.key;
      kind : Messages.kind;
      o_ts : Ots.t;
      replicas : Replicas.t;
      data : Messages.data_snapshot option;
    }
  | Set_o_state of { key : Types.key; o_state : Types.o_state }
  | Restore_request_state of Types.key
  | Drop_dead_replicas of { live : bool array }
  | Notify_request of
      { key : Types.key; kind : Messages.kind; requester : Types.node_id }
  | Notify_owner_change of { key : Types.key; owner : Types.node_id }
  | Unblock of { seq : int; result : (unit, Messages.nack_reason) result }
  | Telemetry of telemetry

type input =
  | Deliver of
      { src : Types.node_id; payload : Zeus_net.Msg.payload; facts : facts;
        env : env }
  | Api_request of
      { key : Types.key; kind : Messages.kind; facts : facts; env : env }
  | Api_register of { key : Types.key; replicas : Replicas.t; env : env }
  | Api_forget of { key : Types.key; env : env }
  | Api_seed of { key : Types.key; replicas : Replicas.t }
  | Api_recovery_done of { epoch : int; env : env }
  | Timer_fire of { token : int; kind : timer_kind; facts : facts; env : env }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

type state

val create : ?config:config -> self:Types.node_id -> nodes:int -> unit -> state

val handle :
  dir:(Types.key -> Types.node_id list) -> state -> input -> state * eff list
(** Process one input.  [dir] is the (static) directory-placement function,
    passed per call so [state] stays marshal-free of closures.  The
    returned state is the argument, mutated in place; the effect list must
    be executed in order before the next input. *)

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

val copy : state -> state
(** Deep copy, for branching exploration. *)

val fingerprint : state -> string
(** Canonical dump: hashtables in sorted order, timer/span tokens reduced
    to presence bits — states differing only in allocation history
    collapse together. *)
