(* Sans-I/O core of the ownership protocol (§4).

   Every protocol decision lives here as a pure state machine:
   [step st input] mutates [st] (int-indexed tables and counters — no
   engine handles, no sockets, no continuations) and leaves the ordered
   effects the surrounding runtime must execute in the state's {!Outbox}.
   The simulator agent ({!Agent}), the model-checking harness
   ({!Zeus_model.Core_harness}) and input-log replay all drive this same
   code.

   Environment access is inverted: anything the old agent read from the
   runtime mid-handler (virtual time, membership epoch and view, store
   lookups) arrives pre-sampled in {!env} and {!facts}.  Anything it wrote
   (sends, timers, store mutations, telemetry, the caller's continuation)
   leaves as an {!eff}.  The interpreter must execute effects in emission
   order, immediately after [step] returns — the orderings below mirror
   the original call sites exactly, which is what keeps the simulator's
   event sequence bit-identical to the pre-split agent. *)

open Zeus_store
open Messages

type config = {
  request_timeout_us : float;
  replay_after_us : float;
}

let default_config = { request_timeout_us = 500.0; replay_after_us = 300.0 }

(* Runtime facts that change only with the node's view or liveness: an
   interpreter samples them once and reuses the record until either moves.
   Virtual time comes with each input that reads it, on its own. *)
type env = {
  epoch : int;  (** this node's membership epoch *)
  live : bool array;  (** this node's membership view *)
  self_alive : bool;  (** fabric-level liveness of this node *)
  trace_on : bool;  (** span recording armed (guards span-token allocation) *)
}

(* Store facts about the key an input concerns.  [no_facts] is correct for
   inputs that never consult the store (VAL, NACK, recovery-done, ...).
   The fields are mutable so an interpreter can sample every input into
   one record of its own; the core reads them during the step only. *)
type facts = {
  mutable f_exists : bool;  (** [Table.mem table key] *)
  mutable f_o_ts : Ots.t;  (** the local replica's applied [o_ts] ([Ots.zero] if none) *)
  mutable f_is_owner : bool;
  mutable f_busy : bool;  (** [Obj.busy] of the local replica *)
  mutable f_snapshot : data_snapshot option;
      (** copy of the local replica's value, for replay bookkeeping only *)
}

let no_facts =
  { f_exists = false; f_o_ts = Ots.zero; f_is_owner = false; f_busy = false;
    f_snapshot = None }

(* Timers carry everything their fire handler needs: after a
   fresh-incarnation [Reset] the outstanding record is gone, but — exactly
   like the closures they replace — stale timers still fire and must
   unblock the pre-crash caller.  The fields are mutable so the effect
   that arms a timer can be a reused cell (see the emitters below). *)
type timer_kind =
  | T_timeout of { mutable seq : int; mutable key : Types.key; mutable span : int }
  | T_cleanup of { mutable seq : int; mutable span : int }
  | T_replay of { mutable key : Types.key; mutable o_ts : Ots.t }

type counter = C_started | C_won | C_nacked | C_timeout | C_replays | C_driven

type outcome = Granted | Denied of nack_reason | Timeout

type telemetry =
  | Count of counter
  | Arb_latency of { mutable start : float; mutable stop : float }
      (** winning round-trip, [stop -. start] µs (samples + histogram) *)
  | Span_start of
      { token : int; key : Types.key; kind : kind; driver : Types.node_id }
  | Span_finish of { token : int; outcome : outcome }
  | Span_forget of int  (** span token will never be referenced again *)

(* Every effect a steady-state input emits is a record with mutable
   fields, so its cell can be reused (see the emitters below). *)
type eff =
  | Send of {
      mutable dst : Types.node_id;
      mutable size : int;
      mutable payload : Zeus_net.Msg.payload;
    }
  | Send_ack_local_data of {
      mutable dst : Types.node_id;
      mutable req_id : request_id;
      mutable key : Types.key;
      mutable o_ts : Ots.t;
      mutable new_replicas : Replicas.t;
      mutable arbiters : Types.node_id list;
      mutable epoch : int;
    }
      (** an O_ack whose [data] is this node's *current* snapshot of [key]:
          the interpreter copies the value at effect-execution time, after
          any preceding [Apply_arbiter] in the same list (mirrors the old
          agent snapshotting at the send call site, and keeps the hot path
          free of speculative copies) *)
  | Flush  (** transport doorbell *)
  | Set_timer of { mutable token : int; after : float; kind : timer_kind }
  | Cancel_timer of { mutable token : int }
  | Apply_arbiter of {
      mutable key : Types.key;
      mutable kind : kind;
      mutable o_ts : Ots.t;
      mutable replicas : Replicas.t;
    }
  | Apply_requester of {
      mutable key : Types.key;
      mutable kind : kind;
      mutable o_ts : Ots.t;
      mutable replicas : Replicas.t;
      mutable data : data_snapshot option;
    }
  | Set_o_state of { mutable key : Types.key; mutable o_state : Types.o_state }
  | Restore_request_state of { mutable key : Types.key }
      (** local replica back to [O_valid] iff still [O_request] *)
  | Drop_dead_replicas of { live : bool array }
      (** owner-held [o_replicas] in the store shed dead nodes *)
  | Notify_request of
      { mutable key : Types.key; mutable kind : kind; mutable requester : Types.node_id }
  | Notify_owner_change of { mutable key : Types.key; mutable owner : Types.node_id }
  | Unblock of { mutable seq : int; mutable result : (unit, nack_reason) result }
      (** resume the caller registered for request [seq] *)
  | Telemetry of telemetry

type input =
  | Deliver of
      { src : Types.node_id; payload : Zeus_net.Msg.payload; facts : facts;
        env : env; now : float }
  | Api_request of
      { key : Types.key; kind : kind; facts : facts; env : env; now : float }
  | Api_register of { key : Types.key; replicas : Replicas.t; env : env }
  | Api_forget of { key : Types.key; env : env }
  | Api_seed of { key : Types.key; replicas : Replicas.t }
  | Api_recovery_done of { epoch : int; env : env }
  | Timer_fire of { token : int; kind : timer_kind; facts : facts; env : env }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

(* ---------- state -------------------------------------------------------- *)

(* Every table is int-indexed: open requests sit in a {!Window} by request
   seq (seqs only grow) and the recovery gate in an array by node.  Ack
   sets are bitmasks over node ids, and absent entries are the constant
   sentinels below, tested with [==], so a steady-state input does no
   hashing and allocates no [Some] to look anything up.  Pending
   side-buffers and replays hold a few keys at a time, from anywhere in the
   key space, so they are sparse {!Dense_map}s: their memory follows the
   entries held, not the largest key ever replayed. *)

type outstanding = {
  o_req_id : request_id;
  o_key : Types.key;
  o_kind : kind;
  started : float;
  mutable acks : int;  (** bit [n] set once node [n] ACKed *)
  mutable has_proto : bool;
      (** an ACK arrived: [p_o_ts], [p_replicas] and [p_arbiters] hold the
          proposal of the latest [o_ts] seen *)
  mutable p_o_ts : Ots.t;
  mutable p_replicas : Replicas.t;
  mutable p_arbiters : Types.node_id list;
  mutable data : data_snapshot option;
  mutable live_req : bool;
      (** caller not yet unblocked (the old agent's [unblock <> None]) *)
  mutable timer : int;  (** armed timeout token, [-1] when none *)
  o_span : int;  (** span token, [-1] when tracing was off at request time *)
}

type replay = {
  r_pending : Directory.pending;
  r_key : Types.key;
  mutable r_acks : int;  (** bitmask, as [acks] *)
  mutable r_data : data_snapshot option;
}

type state = {
  self : Types.node_id;
  directory : Directory.t;
  side_pending : Directory.pending Dense_map.t;
  outstanding : outstanding Window.t;  (** by request seq *)
  replays : replay Dense_map.t;
  mutable req_seq : int;
  mutable rr : int;
  mutable gate_epoch : int;
  mutable gate_waiting : bool array;  (** by node *)
  mutable gate_count : int;  (** [true] cells of [gate_waiting] *)
  mutable prev_live : bool array;
  mutable token_seq : int;  (** timer + span token allocator *)
  timeout_after : float;
  cleanup_after : float;
  replay_after : float;
      (** the timer delays, boxed once here rather than on every [Set_timer] *)
  mutable env : env;  (** of the input being handled *)
  mutable now : float;
      (** virtual time of the input being handled (only compared and
          subtracted, never advanced) *)
  mutable dir : Types.key -> Types.node_id list;
      (** of the input being handled; [no_dir] between inputs *)
  out : eff Outbox.t;  (** effects emitted, not yet executed by the interpreter *)
}

let no_req_id = { origin = -1; seq = -1 }

let no_pending =
  {
    Directory.req_id = no_req_id;
    o_ts = Ots.zero;
    base_ts = Ots.zero;
    new_replicas = Replicas.none;
    kind = Acquire;
    requester = -1;
    arbiters = [];
    data_from = None;
    driving = false;
    born = 0.0;
  }

let no_replay = { r_pending = no_pending; r_key = -1; r_acks = 0; r_data = None }

let no_outstanding =
  {
    o_req_id = no_req_id;
    o_key = -1;
    o_kind = Acquire;
    started = 0.0;
    acks = 0;
    has_proto = false;
    p_o_ts = Ots.zero;
    p_replicas = Replicas.none;
    p_arbiters = [];
    data = None;
    live_req = false;
    timer = -1;
    o_span = -1;
  }

let no_env = { epoch = 0; live = [||]; self_alive = true; trace_on = false }

let no_dir (_ : Types.key) : Types.node_id list = []

(* The effect buffer reuses the cells of the kinds below (see
   {!Outbox.create}).  A timer's cell is pooled by the kind of timer it
   arms, so a reused cell's [kind] is refilled in place and its [after],
   fixed per kind, stays. *)
let k_send = 0
let k_ack_local_data = 1
let k_timeout = 2
let k_cleanup = 3
let k_replay = 4
let k_cancel = 5
let k_apply_arbiter = 6
let k_apply_requester = 7
let k_o_state = 8
let k_restore = 9
let k_notify_request = 10
let k_notify_owner = 11
let k_unblock = 12
let k_arb_latency = 13
let cell_kinds = 14

let cell_kind = function
  | Send _ -> k_send
  | Send_ack_local_data _ -> k_ack_local_data
  | Set_timer { kind = T_timeout _; _ } -> k_timeout
  | Set_timer { kind = T_cleanup _; _ } -> k_cleanup
  | Set_timer { kind = T_replay _; _ } -> k_replay
  | Cancel_timer _ -> k_cancel
  | Apply_arbiter _ -> k_apply_arbiter
  | Apply_requester _ -> k_apply_requester
  | Set_o_state _ -> k_o_state
  | Restore_request_state _ -> k_restore
  | Notify_request _ -> k_notify_request
  | Notify_owner_change _ -> k_notify_owner
  | Unblock _ -> k_unblock
  | Telemetry (Arb_latency _) -> k_arb_latency
  | Flush | Drop_dead_replicas _
  | Telemetry (Count _ | Span_start _ | Span_finish _ | Span_forget _) ->
    -1

let copy_timer_kind = function
  | T_timeout k -> T_timeout { k with seq = k.seq }
  | T_cleanup k -> T_cleanup { k with seq = k.seq }
  | T_replay k -> T_replay { k with key = k.key }

let copy_eff = function
  | Send c -> Send { c with dst = c.dst }
  | Send_ack_local_data c -> Send_ack_local_data { c with dst = c.dst }
  | Set_timer c -> Set_timer { c with kind = copy_timer_kind c.kind }
  | Cancel_timer c -> Cancel_timer { token = c.token }
  | Apply_arbiter c -> Apply_arbiter { c with key = c.key }
  | Apply_requester c -> Apply_requester { c with key = c.key }
  | Set_o_state c -> Set_o_state { c with key = c.key }
  | Restore_request_state c -> Restore_request_state { key = c.key }
  | Notify_request c -> Notify_request { c with key = c.key }
  | Notify_owner_change c -> Notify_owner_change { c with key = c.key }
  | Unblock c -> Unblock { c with seq = c.seq }
  | Telemetry (Arb_latency c) -> Telemetry (Arb_latency { c with start = c.start })
  | (Flush | Drop_dead_replicas _ | Telemetry _) as e -> e

let new_outbox () = Outbox.create ~dummy:Flush ~copy:copy_eff ~kinds:cell_kinds ~kind:cell_kind

let create ?(config = default_config) ~self ~nodes () =
  if nodes >= Sys.int_size then invalid_arg "Ownership.Core.create: ack bitmasks hold 62 nodes";
  {
    self;
    directory = Directory.create ~node:self;
    side_pending = Dense_map.create_sparse ~dummy:no_pending;
    outstanding = Window.create ~dummy:no_outstanding;
    replays = Dense_map.create_sparse ~dummy:no_replay;
    req_seq = 0;
    rr = self;
    gate_epoch = -1;
    gate_waiting = Array.make nodes false;
    gate_count = 0;
    prev_live = Array.make nodes true;
    token_seq = 0;
    timeout_after = config.request_timeout_us;
    cleanup_after = 4.0 *. config.request_timeout_us;
    replay_after = config.replay_after_us;
    env = no_env;
    now = 0.0;
    dir = no_dir;
    out = new_outbox ();
  }

let directory st = st.directory
let next_seq st = st.req_seq

let has_replay st key = Dense_map.mem st.replays key

let pending_ts st key =
  let e = Directory.find st.directory key in
  if e != Directory.dummy then
    Option.map (fun (p : Directory.pending) -> p.Directory.o_ts) e.Directory.pending
  else
    let p = Dense_map.find st.side_pending key in
    if p == no_pending then None else Some p.Directory.o_ts

let handles_payload = function
  | O_req _ | O_inv _ | O_ack _ | O_val _ | O_nack _ | O_resp _
  | O_recovery_done _ | O_register _ | O_forget _ ->
    true
  | _ -> false

(* ---------- emitters ------------------------------------------------------ *)

(* Effects go to the state's {!Outbox} and stay there for the interpreter
   to walk.  Each effect a steady-state input emits has an emitter of its
   own, which takes a released cell of its kind out of the buffer's pool
   and overwrites it, building a new one only when the pool is empty; the
   rare effects (constants, view changes, spans) go through [emit]. *)
let emit st e = Outbox.emit st.out e
let effects st = st.out

let send st ~dst ~size payload =
  match Outbox.reuse st.out k_send with
  | Send c as e ->
    c.dst <- dst;
    c.size <- size;
    c.payload <- payload;
    emit st e
  | _ -> emit st (Send { dst; size; payload })

let send_ack_local_data st ~dst ~req_id ~key ~o_ts ~new_replicas ~arbiters ~epoch =
  match Outbox.reuse st.out k_ack_local_data with
  | Send_ack_local_data c as e ->
    c.dst <- dst;
    c.req_id <- req_id;
    c.key <- key;
    c.o_ts <- o_ts;
    c.new_replicas <- new_replicas;
    c.arbiters <- arbiters;
    c.epoch <- epoch;
    emit st e
  | _ -> emit st (Send_ack_local_data { dst; req_id; key; o_ts; new_replicas; arbiters; epoch })

let set_timeout_timer st ~token ~seq ~key ~span =
  match Outbox.reuse st.out k_timeout with
  | Set_timer ({ kind = T_timeout k; _ } as c) as e ->
    c.token <- token;
    k.seq <- seq;
    k.key <- key;
    k.span <- span;
    emit st e
  | _ -> emit st (Set_timer { token; after = st.timeout_after; kind = T_timeout { seq; key; span } })

let set_cleanup_timer st ~token ~seq ~span =
  match Outbox.reuse st.out k_cleanup with
  | Set_timer ({ kind = T_cleanup k; _ } as c) as e ->
    c.token <- token;
    k.seq <- seq;
    k.span <- span;
    emit st e
  | _ -> emit st (Set_timer { token; after = st.cleanup_after; kind = T_cleanup { seq; span } })

let set_replay_timer st ~token ~key ~o_ts =
  match Outbox.reuse st.out k_replay with
  | Set_timer ({ kind = T_replay k; _ } as c) as e ->
    c.token <- token;
    k.key <- key;
    k.o_ts <- o_ts;
    emit st e
  | _ -> emit st (Set_timer { token; after = st.replay_after; kind = T_replay { key; o_ts } })

let cancel_timer st token =
  match Outbox.reuse st.out k_cancel with
  | Cancel_timer c as e ->
    c.token <- token;
    emit st e
  | _ -> emit st (Cancel_timer { token })

let apply_arbiter st ~key ~kind ~o_ts ~replicas =
  match Outbox.reuse st.out k_apply_arbiter with
  | Apply_arbiter c as e ->
    c.key <- key;
    c.kind <- kind;
    c.o_ts <- o_ts;
    c.replicas <- replicas;
    emit st e
  | _ -> emit st (Apply_arbiter { key; kind; o_ts; replicas })

let apply_requester st ~key ~kind ~o_ts ~replicas ~data =
  match Outbox.reuse st.out k_apply_requester with
  | Apply_requester c as e ->
    c.key <- key;
    c.kind <- kind;
    c.o_ts <- o_ts;
    c.replicas <- replicas;
    c.data <- data;
    emit st e
  | _ -> emit st (Apply_requester { key; kind; o_ts; replicas; data })

let set_o_state st key o_state =
  match Outbox.reuse st.out k_o_state with
  | Set_o_state c as e ->
    c.key <- key;
    c.o_state <- o_state;
    emit st e
  | _ -> emit st (Set_o_state { key; o_state })

let restore_request_state st key =
  match Outbox.reuse st.out k_restore with
  | Restore_request_state c as e ->
    c.key <- key;
    emit st e
  | _ -> emit st (Restore_request_state { key })

let notify_request st ~key ~kind ~requester =
  match Outbox.reuse st.out k_notify_request with
  | Notify_request c as e ->
    c.key <- key;
    c.kind <- kind;
    c.requester <- requester;
    emit st e
  | _ -> emit st (Notify_request { key; kind; requester })

let notify_owner_change st ~key ~owner =
  match Outbox.reuse st.out k_notify_owner with
  | Notify_owner_change c as e ->
    c.key <- key;
    c.owner <- owner;
    emit st e
  | _ -> emit st (Notify_owner_change { key; owner })

let unblock st ~seq result =
  match Outbox.reuse st.out k_unblock with
  | Unblock c as e ->
    c.seq <- seq;
    c.result <- result;
    emit st e
  | _ -> emit st (Unblock { seq; result })

let arb_latency st ~start =
  match Outbox.reuse st.out k_arb_latency with
  | Telemetry (Arb_latency c) as e ->
    c.start <- start;
    c.stop <- st.now;
    emit st e
  | _ -> emit st (Telemetry (Arb_latency { start; stop = st.now }))

let live st n = st.env.live.(n)
let bit (n : Types.node_id) = 1 lsl n

let is_self st = function Some n -> n = st.self | None -> false

(* Node lists are short; these walk them without closures or polymorphic
   comparison. *)
let rec mem_node (n : Types.node_id) = function
  | [] -> false
  | m :: rest -> m = n || mem_node n rest

let rec mem_live live (n : Types.node_id) = function
  | [] -> false
  | m :: rest -> (m = n && live.(m)) || mem_live live n rest

let rec all_live live = function [] -> true | n :: rest -> live.(n) && all_live live rest

(* [Replicas.drop_dead] under the input's view, without building a
   closure while everyone is live (it then returns its argument too). *)
let drop_dead st (r : Replicas.t) =
  let live = st.env.live in
  if (match r.Replicas.owner with Some o -> live.(o) | None -> true)
     && all_live live r.Replicas.readers
  then r
  else Replicas.drop_dead r ~live:(fun n -> live.(n))

let is_dir_for st key = mem_node st.self (st.dir key)

(* This node's directory entry for the key, or [Directory.dummy]. *)
let dir_entry st key =
  if is_dir_for st key then Directory.find st.directory key else Directory.dummy

(* The arbitration pending here for the key, or [no_pending]. *)
let find_pending st key =
  let e = dir_entry st key in
  if e != Directory.dummy then
    match e.Directory.pending with Some p -> p | None -> no_pending
  else Dense_map.find st.side_pending key

let applied_ts st key ~facts =
  let e = dir_entry st key in
  if e != Directory.dummy then e.Directory.o_ts else facts.f_o_ts

let fresh_token st =
  let tok = st.token_seq in
  st.token_seq <- tok + 1;
  tok

(* ---------- request routing ---------------------------------------------- *)

(* The [i]-th live node of [dirs] other than [skip], counting from 0. *)
let rec nth_live live ~skip i = function
  | [] -> invalid_arg "Ownership.Core.nth_live"
  | d :: rest ->
    if live.(d) && d <> skip then if i = 0 then d else nth_live live ~skip (i - 1) rest
    else nth_live live ~skip i rest

let rec count_live live ~skip = function
  | [] -> 0
  | d :: rest -> (if live.(d) && d <> skip then 1 else 0) + count_live live ~skip rest

let pick_driver ~live ~self ~rr dirs =
  let others = count_live live ~skip:self dirs in
  if others > 0 then nth_live live ~skip:self (rr mod others) dirs
  else nth_live live ~skip:(-1) (rr mod count_live live ~skip:(-1) dirs) dirs

(* [d] occurs in [l] before the cell [stop]. *)
let rec occurs_before (d : Types.node_id) stop l =
  if l == stop then false
  else match l with [] -> false | m :: rest -> m = d || occurs_before d stop rest

(* An extra arbiter counts unless absent ([-1]), the requester, already
   listed before it, or a live directory node. *)
let keep_extra live dirs ~requester n ~after1 ~after2 =
  n >= 0 && n <> requester && n <> after1 && n <> after2 && not (mem_live live n dirs)

(* The live directory nodes in order, first occurrences only, without the
   requester, followed by [extras]. *)
let rec arbiters_from live dirs ~requester extras = function
  | [] -> extras
  | d :: rest as l ->
    if live.(d) && d <> requester && not (occurs_before d l dirs) then
      d :: arbiters_from live dirs ~requester extras rest
    else arbiters_from live dirs ~requester extras rest

let arbiters ~live ~dirs ~owner ~data_from ~kind ~requester =
  let owner = match owner with Some o when live.(o) -> o | _ -> -1 in
  let source = match data_from with Some n -> n | None -> -1 in
  let trimmed = match kind with Remove_reader r when live.(r) -> r | _ -> -1 in
  let extras =
    if keep_extra live dirs ~requester trimmed ~after1:owner ~after2:source then [ trimmed ]
    else []
  in
  let extras =
    if keep_extra live dirs ~requester source ~after1:owner ~after2:(-1) then source :: extras
    else extras
  in
  let extras =
    if keep_extra live dirs ~requester owner ~after1:(-1) ~after2:(-1) then owner :: extras
    else extras
  in
  arbiters_from live dirs ~requester extras dirs

(* ---------- arbiter-side apply ------------------------------------------- *)

let apply_pending_here st key (p : Directory.pending) =
  let replicas = drop_dead st p.Directory.new_replicas in
  let e = dir_entry st key in
  if e != Directory.dummy then begin
    Directory.apply_pending e;
    e.Directory.replicas <- replicas
  end
  else begin
    if is_dir_for st key then begin
      Directory.register st.directory key replicas;
      (Directory.find st.directory key).Directory.o_ts <- p.Directory.o_ts
    end;
    Dense_map.remove st.side_pending key
  end;
  Dense_map.remove st.replays key;
  set_o_state st key Types.O_valid;
  (match p.Directory.kind with
  | Acquire -> notify_owner_change st ~key ~owner:p.Directory.requester
  | Add_reader | Remove_reader _ -> ());
  if p.Directory.requester <> st.self then
    apply_arbiter st ~key ~kind:p.Directory.kind ~o_ts:p.Directory.o_ts ~replicas

(* One [payload] to each node of the list other than this one (and, with
   [only_live], each live one). *)
let rec send_each st ~size ~only_live payload = function
  | [] -> ()
  | a :: rest ->
    if a <> st.self && ((not only_live) || live st a) then send st ~dst:a ~size payload;
    send_each st ~size ~only_live payload rest

let send_vals st ~key ~o_ts ~only_live arbiters =
  send_each st ~size:48 ~only_live (O_val { key; o_ts; epoch = st.env.epoch }) arbiters

(* ---------- arb-replay (§4.1) -------------------------------------------- *)

let finish_replay_driverside st r =
  let p = r.r_pending in
  apply_pending_here st r.r_key p;
  send_vals st ~key:r.r_key ~o_ts:p.Directory.o_ts ~only_live:true p.Directory.arbiters;
  Dense_map.remove st.replays r.r_key

(* Every live arbiter ACKed. *)
let rec live_acked st acks = function
  | [] -> true
  | a :: rest -> ((not (live st a)) || acks land bit a <> 0) && live_acked st acks rest

let replay_check_complete st ~snap r =
  let p = r.r_pending in
  if live_acked st r.r_acks p.Directory.arbiters then begin
    (match r.r_data with None -> r.r_data <- snap | Some _ -> ());
    if live st p.Directory.requester then
      send st ~dst:p.Directory.requester
        ~size:(64 + match r.r_data with Some d -> Value.size d.value | None -> 0)
        (O_resp
           {
             req_id = p.Directory.req_id;
             key = r.r_key;
             o_ts = p.Directory.o_ts;
             new_replicas = p.Directory.new_replicas;
             arbiters = p.Directory.arbiters;
             data = r.r_data;
             epoch = st.env.epoch;
           })
    else finish_replay_driverside st r
  end

(* The first live arbiter other than the requester that holds a replica. *)
let rec replay_source st (p : Directory.pending) = function
  | [] -> None
  | a :: rest ->
    if live st a && Replicas.is_replica p.Directory.new_replicas a
       && a <> p.Directory.requester
    then Some a
    else replay_source st p rest

let start_replay st ~snap key (p : Directory.pending) =
  if not (Dense_map.mem st.replays key) then begin
    emit st (Telemetry (Count C_replays));
    let p =
      match p.Directory.data_from with
      | Some src when not (live st src) ->
        { p with Directory.data_from = replay_source st p p.Directory.arbiters }
      | _ -> p
    in
    let r = { r_pending = p; r_key = key; r_acks = bit st.self; r_data = None } in
    if is_self st p.Directory.data_from then r.r_data <- snap;
    Dense_map.replace st.replays key r;
    send_each st ~size:128 ~only_live:true
      (O_inv
         {
           req_id = p.Directory.req_id;
           key;
           o_ts = p.Directory.o_ts;
           base_ts = p.Directory.base_ts;
           new_replicas = p.Directory.new_replicas;
           kind = p.Directory.kind;
           requester = p.Directory.requester;
           arbiters = p.Directory.arbiters;
           data_from = p.Directory.data_from;
           recovery = true;
           driver = st.self;
           epoch = st.env.epoch;
         })
      p.Directory.arbiters;
    replay_check_complete st ~snap r
  end

let arm_replay_check st key o_ts =
  set_replay_timer st ~token:(fresh_token st) ~key ~o_ts

let set_pending st key (p : Directory.pending) =
  let e = dir_entry st key in
  if e != Directory.dummy then Directory.set_pending e p
  else Dense_map.replace st.side_pending key p;
  set_o_state st key Types.O_invalid;
  arm_replay_check st key p.Directory.o_ts

(* ---------- requester ---------------------------------------------------- *)

let finish_outstanding st o result =
  if o.timer >= 0 then cancel_timer st o.timer;
  o.timer <- -1;
  if o.o_span >= 0 then
    emit st
      (Telemetry
         (Span_finish
            {
              token = o.o_span;
              outcome = (match result with Ok () -> Granted | Error r -> Denied r);
            }));
  if o.live_req then begin
    o.live_req <- false;
    if Result.is_error result then restore_request_state st o.o_key;
    unblock st ~seq:o.o_req_id.seq result
  end

let missing_data ~kind ~data ~f_exists =
  (match kind with Acquire | Add_reader -> true | Remove_reader _ -> false)
  && (match data with None -> true | Some _ -> false)
  && not f_exists

let requester_apply_and_val st ~key ~kind ~o_ts ~replicas ~arbiters ~data =
  let replicas = drop_dead st replicas in
  apply_requester st ~key ~kind ~o_ts ~replicas ~data;
  let e = dir_entry st key in
  if e != Directory.dummy then begin
    e.Directory.o_ts <- o_ts;
    e.Directory.replicas <- replicas;
    Directory.clear_pending e
  end
  else Dense_map.remove st.side_pending key;
  Dense_map.remove st.replays key;
  (match kind with
  | Acquire -> notify_owner_change st ~key ~owner:st.self
  | Add_reader | Remove_reader _ -> ());
  send_vals st ~key ~o_ts ~only_live:false arbiters

(* Every arbiter but this node ACKed. *)
let rec all_acked ~self acks = function
  | [] -> true
  | a :: rest -> (a = self || acks land bit a <> 0) && all_acked ~self acks rest

let check_complete st o ~f_exists =
  if o.has_proto && all_acked ~self:st.self o.acks o.p_arbiters then begin
    Window.remove st.outstanding o.o_req_id.seq;
    (if missing_data ~kind:o.o_kind ~data:o.data ~f_exists then
       finish_outstanding st o (Error Unavailable)
     else begin
       requester_apply_and_val st ~key:o.o_key ~kind:o.o_kind ~o_ts:o.p_o_ts
         ~replicas:o.p_replicas ~arbiters:o.p_arbiters ~data:o.data;
       emit st (Telemetry (Count C_won));
       arb_latency st ~start:o.started;
       finish_outstanding st o (Ok ())
     end);
    if o.o_span >= 0 then emit st (Telemetry (Span_forget o.o_span))
  end

let request st ~key ~kind ~facts =
  emit st (Telemetry (Count C_started));
  let seq = st.req_seq in
  st.req_seq <- seq + 1;
  let req_id = { origin = st.self; seq } in
  let dirs = st.dir key in
  let live_dirs = count_live st.env.live ~skip:(-1) dirs in
  if live_dirs = 0 then unblock st ~seq (Error Unavailable)
  else begin
    let driver =
      let self_live_dir = count_live st.env.live ~skip:st.self dirs < live_dirs in
      if self_live_dir && dir_entry st key != Directory.dummy then st.self
      else begin
        st.rr <- st.rr + 1;
        pick_driver ~live:st.env.live ~self:st.self ~rr:st.rr dirs
      end
    in
    let span =
      if st.env.trace_on then begin
        let tok = fresh_token st in
        emit st (Telemetry (Span_start { token = tok; key; kind; driver }));
        tok
      end
      else -1
    in
    let tok = fresh_token st in
    Window.set st.outstanding seq
      {
        o_req_id = req_id;
        o_key = key;
        o_kind = kind;
        started = st.now;
        acks = 0;
        has_proto = false;
        p_o_ts = Ots.zero;
        p_replicas = Replicas.none;
        p_arbiters = [];
        data = None;
        live_req = true;
        timer = tok;
        o_span = span;
      };
    set_o_state st key Types.O_request;
    set_timeout_timer st ~token:tok ~seq ~key ~span;
    send st ~dst:driver ~size:64
      (O_req
         {
           req_id;
           key;
           kind;
           requester = st.self;
           requester_has_data = facts.f_exists;
           epoch = st.env.epoch;
         });
    emit st Flush
  end

(* ---------- driver (a directory node serving REQ) ------------------------ *)

let nack st ~dst ~req_id ~key reason =
  send st ~dst ~size:48 (O_nack { req_id; key; o_ts = None; reason; epoch = st.env.epoch })

let compute_replicas replicas kind ~requester =
  match kind with
  | Acquire -> Replicas.promote replicas ~new_owner:requester
  | Add_reader -> Replicas.add_reader replicas requester
  | Remove_reader r -> Replicas.remove_reader replicas r

let gate_active st = st.gate_epoch >= 0 && st.gate_count > 0

(* An arbiter's ACK; the designated data source's carries its copy. *)
let send_ack st ~dst ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data_from =
  if is_self st data_from then
    send_ack_local_data st ~dst ~req_id ~key ~o_ts ~new_replicas ~arbiters ~epoch:st.env.epoch
  else
    send st ~dst ~size:64
      (O_ack
         {
           req_id;
           key;
           o_ts;
           new_replicas;
           arbiters;
           sender = st.self;
           data = None;
           epoch = st.env.epoch;
         })

let rec first_live st = function
  | [] -> None
  | r :: rest -> if live st r then Some r else first_live st rest

let handle_req st ~req_id ~key ~kind ~requester ~requester_has_data ~facts =
  if is_dir_for st key then begin
    emit st (Telemetry (Count C_driven));
    notify_request st ~key ~kind ~requester;
    let entry = Directory.find st.directory key in
    if entry == Directory.dummy then nack st ~dst:requester ~req_id ~key Unknown_key
    else
      let replicas = entry.Directory.replicas in
      let owner = replicas.Replicas.owner in
      let owner_live = match owner with Some o -> live st o | None -> false in
      if gate_active st && not owner_live then nack st ~dst:requester ~req_id ~key Recovering
      else if Option.is_some entry.Directory.pending then nack st ~dst:requester ~req_id ~key Busy
      else if
        (match kind with Acquire -> true | Add_reader | Remove_reader _ -> false)
        && match owner with Some o -> o = requester | None -> false
      then
        send st ~dst:requester ~size:64
          (O_ack
             {
               req_id;
               key;
               o_ts = entry.Directory.o_ts;
               new_replicas = replicas;
               arbiters = [ st.self ];
               sender = st.self;
               data = None;
               epoch = st.env.epoch;
             })
      else begin
        let need_data =
          (match kind with Acquire | Add_reader -> true | Remove_reader _ -> false)
          && not (requester_has_data && Replicas.is_replica replicas requester)
        in
        let data_from =
          if not need_data then None
          else if owner_live then owner
          else first_live st replicas.Replicas.readers
        in
        if need_data && Option.is_none data_from then nack st ~dst:requester ~req_id ~key Unavailable
        else begin
          let o_ts = Ots.next entry.Directory.o_ts ~node:st.self in
          let arbiters =
            arbiters ~live:st.env.live ~dirs:(st.dir key) ~owner ~data_from ~kind ~requester
          in
          if is_self st owner && facts.f_busy then nack st ~dst:requester ~req_id ~key Busy
          else begin
            let new_replicas = compute_replicas replicas kind ~requester in
            set_pending st key
              {
                Directory.req_id;
                o_ts;
                base_ts = entry.Directory.o_ts;
                new_replicas;
                kind;
                requester;
                arbiters;
                data_from;
                driving = true;
                born = st.now;
              };
            send_each st ~size:128 ~only_live:false
              (O_inv
                 {
                   req_id;
                   key;
                   o_ts;
                   base_ts = entry.Directory.o_ts;
                   new_replicas;
                   kind;
                   requester;
                   arbiters;
                   data_from;
                   recovery = false;
                   driver = st.self;
                   epoch = st.env.epoch;
                 })
              arbiters;
            send_ack st ~dst:requester ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data_from
          end
        end
      end
  end

(* ---------- arbiter ------------------------------------------------------ *)

let handle_inv st ~req_id ~key ~o_ts ~base_ts ~new_replicas ~kind ~requester
    ~arbiters ~data_from ~recovery ~driver ~facts =
  let dst = if recovery then driver else requester in
  let applied = applied_ts st key ~facts in
  let pend = find_pending st key in
  let pending = pend != no_pending in
  if Ots.equal o_ts applied || (pending && Ots.equal pend.Directory.o_ts o_ts) then
    send_ack st ~dst ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data_from
  else begin
    let beats_applied = Ots.(o_ts > applied) in
    let beats_pending = (not pending) || Ots.(o_ts > pend.Directory.o_ts) in
    if beats_applied && beats_pending then begin
      if pending && pend.Directory.driving then
        nack st ~dst:pend.Directory.requester ~req_id:pend.Directory.req_id ~key
          Lost_arbitration;
      (* Track the store transforms an applied base-arbitration performs, so
         the busy decision below sees the post-apply store exactly as the
         pre-split agent (which re-read the table) did. *)
      let f_exists = ref facts.f_exists
      and f_is_owner = ref facts.f_is_owner
      and f_busy = ref facts.f_busy in
      if pending && Ots.equal pend.Directory.o_ts base_ts then begin
        apply_pending_here st key pend;
        if pend.Directory.requester <> st.self then begin
          match pend.Directory.kind with
          | Acquire -> f_is_owner := false
          | Remove_reader r when r = st.self ->
            f_exists := false;
            f_is_owner := false;
            f_busy := false
          | Add_reader | Remove_reader _ -> ()
        end
      end;
      let busy_here =
        !f_busy
        && ((!f_exists && !f_is_owner)
           || match kind with Remove_reader r -> r = st.self | _ -> false)
      in
      if busy_here then nack st ~dst:requester ~req_id ~key Busy
      else begin
        set_pending st key
          {
            Directory.req_id;
            o_ts;
            base_ts;
            new_replicas;
            kind;
            requester;
            arbiters;
            data_from;
            driving = false;
            born = st.now;
          };
        send_ack st ~dst ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data_from
      end
    end
  end

let handle_val st ~key ~o_ts =
  let p = find_pending st key in
  if p != no_pending && Ots.equal p.Directory.o_ts o_ts then apply_pending_here st key p

(* ---------- dispatch ------------------------------------------------------ *)

let handle_ack st ~req_id ~key ~o_ts ~new_replicas ~arbiters ~sender ~data ~facts =
  if req_id.origin = st.self then begin
    let o = Window.find st.outstanding req_id.seq in
    if o != no_outstanding then begin
      if not (o.has_proto && Ots.equal o.p_o_ts o_ts) then begin
        o.has_proto <- true;
        o.p_o_ts <- o_ts;
        o.p_replicas <- new_replicas;
        o.p_arbiters <- arbiters
      end;
      (match data with Some _ -> o.data <- data | None -> ());
      o.acks <- o.acks lor bit sender;
      check_complete st o ~f_exists:facts.f_exists
    end
  end
  else begin
    let r = Dense_map.find st.replays key in
    if r != no_replay && Ots.equal r.r_pending.Directory.o_ts o_ts then begin
      (match data with Some _ -> r.r_data <- data | None -> ());
      r.r_acks <- r.r_acks lor bit sender;
      replay_check_complete st ~snap:facts.f_snapshot r
    end
  end

let handle_nack st ~req_id ~reason =
  if req_id.origin = st.self then begin
    let o = Window.find st.outstanding req_id.seq in
    if o != no_outstanding then begin
      Window.remove st.outstanding req_id.seq;
      emit st (Telemetry (Count C_nacked));
      finish_outstanding st o (Error reason);
      if o.o_span >= 0 then emit st (Telemetry (Span_forget o.o_span))
    end
  end

let handle_resp st ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data ~facts =
  (* A RESP with no data anywhere (no snapshot, no local copy) is dropped. *)
  if not (missing_data ~kind:Acquire ~data ~f_exists:facts.f_exists) then begin
    let o = Window.find st.outstanding req_id.seq in
    if o != no_outstanding then begin
      Window.remove st.outstanding req_id.seq;
      emit st (Telemetry (Count C_won));
      arb_latency st ~start:o.started;
      requester_apply_and_val st ~key ~kind:o.o_kind ~o_ts ~replicas:new_replicas
        ~arbiters ~data;
      finish_outstanding st o (Ok ());
      if o.o_span >= 0 then emit st (Telemetry (Span_forget o.o_span))
    end
    else begin
      let applied = applied_ts st key ~facts in
      let pend_matches =
        let p = find_pending st key in
        p != no_pending && Ots.equal p.Directory.o_ts o_ts
      in
      if Ots.(o_ts > applied) || pend_matches then
        requester_apply_and_val st ~key ~kind:Acquire ~o_ts ~replicas:new_replicas
          ~arbiters ~data
      else send_vals st ~key ~o_ts ~only_live:true arbiters
    end
  end

let handle_recovery_done st ~sender ~msg_epoch =
  if msg_epoch = st.gate_epoch then begin
    if sender >= 0 && sender < Array.length st.gate_waiting && st.gate_waiting.(sender)
    then begin
      st.gate_waiting.(sender) <- false;
      st.gate_count <- st.gate_count - 1
    end;
    if st.gate_count = 0 then st.gate_epoch <- -1
  end

let rec seed_or_send st key payload ~size ~here = function
  | [] -> ()
  | dn :: rest ->
    if dn = st.self then here st key
    else if live st dn then send st ~dst:dn ~size payload;
    seed_or_send st key payload ~size ~here rest

let seed_directory st key replicas =
  if is_dir_for st key then Directory.register st.directory key replicas

let deliver_payload st ~facts payload =
  let e = st.env.epoch in
  (match payload with
  | O_req { req_id; key; kind; requester; requester_has_data; epoch } ->
    if epoch = e then handle_req st ~req_id ~key ~kind ~requester ~requester_has_data ~facts
  | O_inv
      {
        req_id;
        key;
        o_ts;
        base_ts;
        new_replicas;
        kind;
        requester;
        arbiters;
        data_from;
        recovery;
        driver;
        epoch;
      } ->
    if epoch = e then
      handle_inv st ~req_id ~key ~o_ts ~base_ts ~new_replicas ~kind ~requester
        ~arbiters ~data_from ~recovery ~driver ~facts
  | O_ack { req_id; key; o_ts; new_replicas; arbiters; sender; data; epoch } ->
    if epoch = e then
      handle_ack st ~req_id ~key ~o_ts ~new_replicas ~arbiters ~sender ~data ~facts
  | O_val { key; o_ts; epoch } -> if epoch = e then handle_val st ~key ~o_ts
  | O_nack { req_id; reason; epoch; _ } -> if epoch = e then handle_nack st ~req_id ~reason
  | O_resp { req_id; key; o_ts; new_replicas; arbiters; data; epoch } ->
    if epoch = e then handle_resp st ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data ~facts
  | O_recovery_done { node; epoch } -> handle_recovery_done st ~sender:node ~msg_epoch:epoch
  | O_register { key; replicas } -> seed_directory st key replicas
  | O_forget { key } -> Directory.forget st.directory key
  | _ -> ());
  emit st Flush

(* ---------- timers ------------------------------------------------------- *)

let fire st ~facts kind =
  match kind with
  | T_replay { key; o_ts } ->
    if st.env.self_alive then begin
      let p = find_pending st key in
      if p != no_pending && Ots.equal p.Directory.o_ts o_ts then begin
        Dense_map.remove st.replays key;
        start_replay st ~snap:facts.f_snapshot key p;
        emit st Flush;
        arm_replay_check st key o_ts
      end
    end
  | T_timeout { seq; key; span } ->
    let o = Window.find st.outstanding seq in
    if o != no_outstanding then begin
      o.timer <- -1;
      if o.live_req then begin
        emit st (Telemetry (Count C_timeout));
        if o.o_span >= 0 then
          emit st (Telemetry (Span_finish { token = o.o_span; outcome = Timeout }));
        finish_outstanding st o (Error Busy);
        (* Keep the record a while longer: a late win is still applied (the
           app's retry then finds it owns the object). *)
        set_cleanup_timer st ~token:(fresh_token st) ~seq ~span:o.o_span
      end
    end
    else begin
      (* A fresh-incarnation [Reset] wiped the record, but — exactly like
         the closure this timer replaces — the pre-crash caller must still
         be timed out and unblocked. *)
      emit st (Telemetry (Count C_timeout));
      if span >= 0 then begin
        emit st (Telemetry (Span_finish { token = span; outcome = Timeout }));
        emit st (Telemetry (Span_finish { token = span; outcome = Denied Busy }))
      end;
      restore_request_state st key;
      unblock st ~seq (Error Busy);
      set_cleanup_timer st ~token:(fresh_token st) ~seq ~span
    end
  | T_cleanup { seq; span } ->
    let o = Window.find st.outstanding seq in
    if o != no_outstanding then begin
      Window.remove st.outstanding seq;
      if o.o_span >= 0 then emit st (Telemetry (Span_forget o.o_span))
    end
    else if span >= 0 then emit st (Telemetry (Span_forget span))

(* ---------- registration, recovery, membership --------------------------- *)

let api_register st ~key ~replicas =
  seed_or_send st key (O_register { key; replicas }) ~size:64
    ~here:(fun st key -> seed_directory st key replicas)
    (st.dir key)

let api_forget st ~key =
  seed_or_send st key (O_forget { key }) ~size:48
    ~here:(fun st key -> Directory.forget st.directory key)
    (st.dir key)

let api_recovery_done st ~epoch:ep =
  let live = st.env.live in
  for dn = 0 to Array.length live - 1 do
    if live.(dn) then
      if dn = st.self then handle_recovery_done st ~sender:st.self ~msg_epoch:ep
      else
        send st ~dst:dn ~size:32 (O_recovery_done { node = st.self; epoch = ep })
  done;
  emit st Flush

let view_change st ~view_epoch ~(vlive : bool array) =
  let lost = ref false in
  Array.iteri (fun i was -> if was && not vlive.(i) then lost := true) st.prev_live;
  st.prev_live <- Array.copy vlive;
  Directory.drop_dead st.directory ~live:(fun n -> vlive.(n));
  emit st (Drop_dead_replicas { live = Array.copy vlive });
  (* Every open request fails, in ascending seq order. *)
  while Window.length st.outstanding > 0 do
    let seq = Window.low st.outstanding in
    let o = Window.find st.outstanding seq in
    Window.remove st.outstanding seq;
    finish_outstanding st o (Error Busy);
    if o.o_span >= 0 then emit st (Telemetry (Span_forget o.o_span))
  done;
  Dense_map.clear st.replays;
  if !lost then begin
    st.gate_epoch <- view_epoch;
    st.gate_waiting <- Array.copy vlive;
    st.gate_count <- Array.fold_left (fun n l -> if l then n + 1 else n) 0 vlive
  end;
  (* Replay checks are armed in ascending key order, so timer tokens and
     same-instant timer order depend on the pending set alone, not on
     table layout. *)
  let pendings = ref [] in
  Directory.iter st.directory (fun e ->
      match e.Directory.pending with
      | Some p -> pendings := (e.Directory.key, p) :: !pendings
      | None -> ());
  pendings := List.rev_append (List.rev (Dense_map.bindings st.side_pending)) !pendings;
  List.iter
    (fun (key, (p : Directory.pending)) -> arm_replay_check st key p.Directory.o_ts)
    (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !pendings)

let reset st =
  Dense_map.clear st.side_pending;
  Window.clear st.outstanding;
  Dense_map.clear st.replays;
  Array.fill st.gate_waiting 0 (Array.length st.gate_waiting) false;
  st.gate_count <- 0;
  st.gate_epoch <- -1;
  Directory.clear st.directory

(* ---------- the entry points --------------------------------------------- *)

(* The agent calls [deliver], [api_request] and [timer_fire], the
   per-message and per-timer paths, directly, with its cached [env] and
   its own [facts] record: nothing is built per input.  [step] dispatches each [input] to the same functions.
   An input's runtime is held in the state only while it is stepped. *)
let enter st ~dir ~env =
  st.dir <- dir;
  st.env <- env

let leave st =
  st.dir <- no_dir;
  st.env <- no_env

let deliver ~dir st ~env ~now ~facts payload =
  enter st ~dir ~env;
  st.now <- now;
  deliver_payload st ~facts payload;
  leave st

let api_request ~dir st ~env ~now ~facts ~key ~kind =
  enter st ~dir ~env;
  st.now <- now;
  request st ~key ~kind ~facts;
  leave st

let timer_fire ~dir st ~env ~facts kind =
  enter st ~dir ~env;
  fire st ~facts kind;
  leave st

let step ~dir st input =
  match input with
  | Deliver { payload; facts; env; now; _ } -> deliver ~dir st ~env ~now ~facts payload
  | Api_request { key; kind; facts; env; now } -> api_request ~dir st ~env ~now ~facts ~key ~kind
  | Api_register { key; replicas; env } ->
    enter st ~dir ~env;
    api_register st ~key ~replicas;
    leave st
  | Api_forget { key; env } ->
    enter st ~dir ~env;
    api_forget st ~key;
    leave st
  | Api_seed { key; replicas } ->
    enter st ~dir ~env:no_env;
    seed_directory st key replicas;
    leave st
  | Api_recovery_done { epoch; env } ->
    enter st ~dir ~env;
    api_recovery_done st ~epoch;
    leave st
  | Timer_fire { kind; facts; env; _ } -> timer_fire ~dir st ~env ~facts kind
  | View_change { view_epoch; live; env } ->
    enter st ~dir ~env;
    view_change st ~view_epoch ~vlive:live;
    leave st
  | Reset -> reset st

let handle ~dir st input =
  step ~dir st input;
  (st, Outbox.take st.out)

(* ---------- deep copy + canonical fingerprint (model checking) ----------- *)

let copy_outstanding o = { o with acks = o.acks }  (* a fresh record *)
let copy_replay r = { r with r_acks = r.r_acks }

let copy st =
  let directory = Directory.create ~node:st.self in
  Directory.iter st.directory (fun e ->
      Directory.register directory e.Directory.key e.Directory.replicas;
      let e' = Directory.find directory e.Directory.key in
      e'.Directory.o_state <- e.Directory.o_state;
      e'.Directory.o_ts <- e.Directory.o_ts;
      e'.Directory.pending <- e.Directory.pending);
  {
    st with
    directory;
    side_pending = Dense_map.copy Fun.id st.side_pending;
    outstanding = Window.copy copy_outstanding st.outstanding;
    replays = Dense_map.copy copy_replay st.replays;
    gate_waiting = Array.copy st.gate_waiting;
    prev_live = Array.copy st.prev_live;
    out = new_outbox ();
  }

(* The fingerprint is canonical: tables are dumped in ascending key order
   and timer/span tokens are reduced to presence bits, so two states that
   differ only in allocation history (token counters) or table layout
   collapse to one explored state. *)

let pp_snap ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some d -> Format.fprintf ppf "v%d:%s" d.t_version (Bytes.to_string d.value)

let pp_pending ppf (p : Directory.pending) =
  Format.fprintf ppf "{r=n%d.%d ts=%a base=%a nr=%a k=%a req=n%d arb=[%s] df=%s d=%b b=%g}"
    p.Directory.req_id.origin p.Directory.req_id.seq Ots.pp p.Directory.o_ts Ots.pp
    p.Directory.base_ts Replicas.pp p.Directory.new_replicas Messages.pp_kind
    p.Directory.kind p.Directory.requester
    (String.concat ";" (List.map string_of_int p.Directory.arbiters))
    (match p.Directory.data_from with Some n -> string_of_int n | None -> "-")
    p.Directory.driving p.Directory.born

(* The set bits of a node mask, ascending. *)
let nodes_of_mask mask =
  List.filter (fun n -> mask land bit n <> 0) (List.init (Sys.int_size - 1) Fun.id)

let fingerprint st =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  let gw = ref [] in
  Array.iteri (fun n w -> if w then gw := n :: !gw) st.gate_waiting;
  Format.fprintf ppf "n%d rr=%d seq=%d gate=%d gw=[%s] pl=[%s]@," st.self st.rr
    st.req_seq st.gate_epoch
    (String.concat ";" (List.rev_map string_of_int !gw))
    (String.concat ";"
       (Array.to_list (Array.map (fun l -> if l then "1" else "0") st.prev_live)));
  let dir_entries = ref [] in
  Directory.iter st.directory (fun e -> dir_entries := e :: !dir_entries);
  let dir_entries =
    List.sort (fun a b -> compare a.Directory.key b.Directory.key) !dir_entries
  in
  List.iter
    (fun (e : Directory.entry) ->
      Format.fprintf ppf "D%d %a %a %a %a@," e.Directory.key Types.pp_o_state
        e.Directory.o_state Ots.pp e.Directory.o_ts Replicas.pp e.Directory.replicas
        (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "-") pp_pending)
        e.Directory.pending)
    dir_entries;
  List.iter
    (fun (key, p) -> Format.fprintf ppf "S%d %a@," key pp_pending p)
    (Dense_map.bindings st.side_pending);
  Window.iter
    (fun seq o ->
      Format.fprintf ppf "O%d k=%d %a t0=%g acks=[%s] proto=%s data=%a live=%b tmr=%b@,"
        seq o.o_key Messages.pp_kind o.o_kind o.started
        (String.concat ";" (List.map string_of_int (nodes_of_mask o.acks)))
        (if not o.has_proto then "-"
         else
           Format.asprintf "%a/%a/[%s]" Ots.pp o.p_o_ts Replicas.pp o.p_replicas
             (String.concat ";" (List.map string_of_int o.p_arbiters)))
        pp_snap o.data o.live_req (o.timer >= 0))
    st.outstanding;
  List.iter
    (fun (key, r) ->
      Format.fprintf ppf "R%d %a acks=[%s] data=%a@," key pp_pending r.r_pending
        (String.concat ";" (List.map string_of_int (nodes_of_mask r.r_acks)))
        pp_snap r.r_data)
    (Dense_map.bindings st.replays);
  Format.pp_print_flush ppf ();
  Buffer.contents b
