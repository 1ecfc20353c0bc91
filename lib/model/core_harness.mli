(** Bounded exploration of the {e real} sans-I/O protocol cores — the
    repo's one model checker, the executable analogue of the paper's TLA+
    checking (§8).

    The harness drives the production state machines —
    {!Zeus_ownership.Core} and {!Zeus_commit.Core} — through
    {!Explorer.bfs}.  Each world holds one core and one real
    {!Zeus_store.Table} per node, plus the minimal interpreter around them
    (a message multiset, armed timers, the membership epoch); transitions
    feed real inputs, sample their store facts and run their store effects
    with the agents' own functions ({!Zeus_ownership.Agent.facts},
    {!Zeus_ownership.Agent.apply_store}, {!Zeus_commit.Agent.apply_store}).
    {!scenarios} is the table every consumer runs: [zeus_cli model], the
    [verify] experiment and the model tests. *)

(** A message in flight. *)
type msg = {
  m_src : Zeus_store.Types.node_id;
  m_dst : Zeus_store.Types.node_id;
  payload : Zeus_net.Msg.payload;
}

(** Ownership core under contention, duplication, crash-stop failure and
    arb-replay: 3 directory replicas, node 0 owns key 0 with readers
    {1, 2}, node 3 a non-replica. *)
module Ownership : sig
  type config = {
    requesters : int list;  (** nodes issuing Acquire intents *)
    crashable : int list;   (** nodes that may crash (at most one does) *)
    dup_budget : int;       (** how many deliveries may be duplicated *)
    fifo : bool;
        (** [false] (default): the net is an arbitrarily reordered
            multiset — the ownership protocol has never assumed link
            order, and this pins that.  [true] restricts delivery to each
            link's oldest message (the ordered transport), a strict subset
            of the reordered behaviours. *)
  }

  val default_config : config

  type state

  val explore : ?config:config -> ?max_states:int -> unit -> state Explorer.stats

  (** {2 Scripting}

      Step-by-step world construction, for tests of the harness itself.
      The mutators change the world in place. *)

  val init_world : config -> state
  val copy : state -> state

  val issue : state -> Zeus_store.Types.node_id -> unit
  (** The node starts an Acquire of key 0. *)

  val crash : state -> Zeus_store.Types.node_id -> unit
  val tick : state -> unit
  (** Installs the view that follows a {!crash}. *)

  val post : state -> msg -> unit
  (** Appends a message to the net. *)

  val take : state -> msg -> unit
  (** Removes one copy of the message from the net and delivers it, with
      the destination's owner copy not busy. *)

  val normalize : state -> unit
  (** The reduction applied to every explored world: drops what can no
      longer influence behaviour (state of the dead, zombie replay timers,
      no-op NACKs). *)

  val key : config -> state -> string
  (** The canonical key worlds are deduplicated on. *)

  val net : state -> msg list
  val epoch : state -> int
  val core : state -> Zeus_store.Types.node_id -> Zeus_ownership.Core.state
  val table : state -> Zeus_store.Types.node_id -> Zeus_store.Table.t
end

(** Commit core under pipelining, partial streams, duplication and
    coordinator crash + replay: coordinator 0, object X on followers 1-2,
    object Y on follower 1 only. *)
module Commit : sig
  type txn = [ `X | `XY | `Y ]

  type config = {
    txns : txn list;  (** the coordinator's pipeline schedule *)
    crash : bool;     (** allow a coordinator crash *)
    dup_budget : int;
    fifo : bool;
        (** [true]: each link delivers in send order, matching the batched
            reliable transport / RDMA RC; duplication is an in-order double
            delivery.  [false]: the net is an arbitrarily reordered
            multiset — [Transport.unordered].  With the sequence-aware
            clear marks (the default) the protocol passes under both. *)
    clear_marks : Zeus_commit.Core.clear_marks;
        (** [Sequenced] (default): R-VALs carry explicit slot watermarks.
            [Legacy]: the historical arrival-order clearing; combined with
            [fifo = false] it reproduces the VAL-overtakes-first-INV
            buffering deadlock — the table's negative control. *)
  }

  val default_config : config

  type state

  val explore : ?config:config -> ?max_states:int -> unit -> state Explorer.stats
end

(** {1 Scenario table} *)

type expect =
  | Exhaustive  (** no violation, and a run at [cap] closes the space *)
  | Bounded     (** no violation within [cap]; the space is larger *)
  | Counterexample of string
      (** a violation whose message contains this, found within [cap] *)

type scenario = {
  name : string;
  cap : int;  (** the state cap of a full run *)
  expect : expect;
  explore : max_states:int -> (Format.formatter -> unit) Explorer.stats;
      (** states are erased to their printers *)
}

val scenarios : scenario list

val verdict :
  scenario -> max_states:int -> _ Explorer.stats -> (unit, string) result
(** Whether a run at [max_states] meets the row's expectation.  Closing is
    required of an [Exhaustive] row only when [max_states >= cap]. *)
