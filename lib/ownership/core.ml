(* Sans-I/O core of the ownership protocol (§4).

   Every protocol decision lives here as a pure state machine:
   [handle st input] mutates [st] (hashtables and counters only — no
   closures, no engine handles, no sockets) and returns the ordered list
   of effects the surrounding runtime must execute.  The simulator agent
   ({!Agent}), the model-checking harness ({!Zeus_model.Core_harness}) and
   input-log replay all drive this same code.

   Environment access is inverted: anything the old agent read from the
   runtime mid-handler (virtual time, membership epoch and view, store
   lookups) arrives pre-sampled in {!env} and {!facts}.  Anything it wrote
   (sends, timers, store mutations, telemetry, the caller's continuation)
   leaves as an {!eff}.  The interpreter must execute effects in emission
   order, immediately after [handle] returns — the orderings below mirror
   the original call sites exactly, which is what keeps the simulator's
   event sequence bit-identical to the pre-split agent. *)

open Zeus_store
open Messages

type config = {
  request_timeout_us : float;
  replay_after_us : float;
  replay_sweep_us : float;
}

let default_config =
  { request_timeout_us = 500.0; replay_after_us = 300.0; replay_sweep_us = 500.0 }

(* Runtime facts sampled once per input, before [handle] runs. *)
type env = {
  now : float;  (** virtual time (only compared/subtracted, never advanced) *)
  epoch : int;  (** this node's membership epoch *)
  live : bool array;  (** this node's membership view *)
  self_alive : bool;  (** fabric-level liveness of this node *)
  trace_on : bool;  (** span recording armed (guards span-token allocation) *)
}

(* Store facts about the key an input concerns.  [no_facts] is correct for
   inputs that never consult the store (VAL, NACK, recovery-done, ...). *)
type facts = {
  f_exists : bool;  (** [Table.mem table key] *)
  f_o_ts : Ots.t;  (** the local replica's applied [o_ts] ([Ots.zero] if none) *)
  f_is_owner : bool;
  f_busy : bool;  (** the commit layer's [is_busy key] *)
  f_snapshot : data_snapshot option;
      (** copy of the local replica's value, for replay bookkeeping only *)
}

let no_facts =
  { f_exists = false; f_o_ts = Ots.zero; f_is_owner = false; f_busy = false;
    f_snapshot = None }

(* Timers carry everything their fire handler needs: after a
   fresh-incarnation [Reset] the outstanding record is gone, but — exactly
   like the closures they replace — stale timers still fire and must
   unblock the pre-crash caller. *)
type timer_kind =
  | T_timeout of { seq : int; key : Types.key; span : int }
  | T_cleanup of { seq : int; span : int }
  | T_replay of { key : Types.key; o_ts : Ots.t }

type counter = C_started | C_won | C_nacked | C_timeout | C_replays | C_driven

type outcome = Granted | Denied of nack_reason | Timeout

type telemetry =
  | Count of counter
  | Arb_latency of float  (** winning round-trip, µs (samples + histogram) *)
  | Span_start of
      { token : int; key : Types.key; kind : kind; driver : Types.node_id }
  | Span_finish of { token : int; outcome : outcome }
  | Span_forget of int  (** span token will never be referenced again *)

type eff =
  | Send of { dst : Types.node_id; size : int; payload : Zeus_net.Msg.payload }
  | Send_ack_local_data of {
      dst : Types.node_id;
      req_id : request_id;
      key : Types.key;
      o_ts : Ots.t;
      new_replicas : Replicas.t;
      arbiters : Types.node_id list;
      epoch : int;
    }
      (** an O_ack whose [data] is this node's *current* snapshot of [key]:
          the interpreter copies the value at effect-execution time, after
          any preceding [Apply_arbiter] in the same list (mirrors the old
          agent snapshotting at the send call site, and keeps the hot path
          free of speculative copies) *)
  | Flush  (** transport doorbell *)
  | Set_timer of { token : int; after : float; kind : timer_kind }
  | Cancel_timer of int
  | Apply_arbiter of {
      key : Types.key;
      kind : kind;
      o_ts : Ots.t;
      replicas : Replicas.t;
      requester : Types.node_id;
    }
  | Apply_requester of {
      key : Types.key;
      kind : kind;
      o_ts : Ots.t;
      replicas : Replicas.t;
      data : data_snapshot option;
    }
  | Set_o_state of { key : Types.key; o_state : Types.o_state }
  | Restore_request_state of Types.key
      (** local replica back to [O_valid] iff still [O_request] *)
  | Drop_dead_replicas of { live : bool array }
      (** owner-held [o_replicas] in the store shed dead nodes *)
  | Notify_request of
      { key : Types.key; kind : kind; requester : Types.node_id }
  | Notify_owner_change of { key : Types.key; owner : Types.node_id }
  | Unblock of { seq : int; result : (unit, nack_reason) result }
      (** resume the caller registered for request [seq] *)
  | Telemetry of telemetry

type input =
  | Deliver of
      { src : Types.node_id; payload : Zeus_net.Msg.payload; facts : facts;
        env : env }
  | Api_request of { key : Types.key; kind : kind; facts : facts; env : env }
  | Api_register of { key : Types.key; replicas : Replicas.t; env : env }
  | Api_forget of { key : Types.key; env : env }
  | Api_seed of { key : Types.key; replicas : Replicas.t }
  | Api_recovery_done of { epoch : int; env : env }
  | Timer_fire of { token : int; kind : timer_kind; facts : facts; env : env }
  | View_change of { view_epoch : int; live : bool array; env : env }
  | Reset

(* ---------- state -------------------------------------------------------- *)

type outstanding = {
  o_req_id : request_id;
  o_key : Types.key;
  o_kind : kind;
  started : float;
  mutable acks : Types.node_id list;
  mutable proto : (Ots.t * Replicas.t * Types.node_id list) option;
  mutable data : data_snapshot option;
  mutable live_req : bool;
      (** caller not yet unblocked (the old agent's [unblock <> None]) *)
  mutable timer : int option;  (** armed timeout token *)
  o_span : int;  (** span token, [-1] when tracing was off at request time *)
}

type replay = {
  r_pending : Directory.pending;
  r_key : Types.key;
  mutable r_acks : Types.node_id list;
  mutable r_data : data_snapshot option;
}

type state = {
  config : config;
  self : Types.node_id;
  directory : Directory.t;
  side_pending : (Types.key, Directory.pending) Hashtbl.t;
  outstanding : (int, outstanding) Hashtbl.t;
  replays : (Types.key, replay) Hashtbl.t;
  mutable req_seq : int;
  mutable rr : int;
  mutable gate_epoch : int;
  gate_waiting : (Types.node_id, unit) Hashtbl.t;
  mutable prev_live : bool array;
  mutable token_seq : int;  (** timer + span token allocator *)
}

let create ?(config = default_config) ~self ~nodes () =
  {
    config;
    self;
    directory = Directory.create ~node:self;
    side_pending = Hashtbl.create 64;
    outstanding = Hashtbl.create 64;
    replays = Hashtbl.create 16;
    req_seq = 0;
    rr = self;
    gate_epoch = -1;
    gate_waiting = Hashtbl.create 8;
    prev_live = Array.make nodes true;
    token_seq = 0;
  }

let directory st = st.directory
let next_seq st = st.req_seq

let has_replay st key = Hashtbl.mem st.replays key

let pending_ts st key =
  let p =
    match Directory.find st.directory key with
    | Some e -> e.Directory.pending
    | None -> Hashtbl.find_opt st.side_pending key
  in
  Option.map (fun (p : Directory.pending) -> p.Directory.o_ts) p

let handles_payload = function
  | O_req _ | O_inv _ | O_ack _ | O_val _ | O_nack _ | O_resp _
  | O_recovery_done _ | O_register _ | O_forget _ ->
    true
  | _ -> false

(* ---------- per-input context -------------------------------------------- *)

type ctx = {
  st : state;
  env : env;
  dir : Types.key -> Types.node_id list;
  emit : eff -> unit;
}

let live c n = c.env.live.(n)

(* First occurrence of each node, in order. *)
let dedup nodes =
  List.rev
    (List.fold_left (fun acc n -> if List.mem n acc then acc else n :: acc) [] nodes)

let is_dir_for c key = List.mem c.st.self (c.dir key)

let dir_entry c key =
  if is_dir_for c key then Directory.find c.st.directory key else None

let find_pending c key =
  match dir_entry c key with
  | Some e -> e.Directory.pending
  | None -> Hashtbl.find_opt c.st.side_pending key

let applied_ts c key ~facts =
  match dir_entry c key with Some e -> e.Directory.o_ts | None -> facts.f_o_ts

let fresh_token st =
  let tok = st.token_seq in
  st.token_seq <- tok + 1;
  tok

(* ---------- arbiter-side apply ------------------------------------------- *)

let apply_pending_here c key (p : Directory.pending) =
  let st = c.st in
  let replicas = Replicas.drop_dead p.Directory.new_replicas ~live:(live c) in
  (match dir_entry c key with
  | Some e ->
    Directory.apply_pending e;
    e.Directory.replicas <- replicas
  | None ->
    if is_dir_for c key then begin
      Directory.register st.directory key replicas;
      match Directory.find st.directory key with
      | Some e -> e.Directory.o_ts <- p.Directory.o_ts
      | None -> ()
    end;
    Hashtbl.remove st.side_pending key);
  Hashtbl.remove st.replays key;
  c.emit (Set_o_state { key; o_state = Types.O_valid });
  (match p.Directory.kind with
  | Acquire ->
    c.emit (Notify_owner_change { key; owner = p.Directory.requester })
  | Add_reader | Remove_reader _ -> ());
  if p.Directory.requester <> st.self then
    c.emit
      (Apply_arbiter
         {
           key;
           kind = p.Directory.kind;
           o_ts = p.Directory.o_ts;
           replicas;
           requester = p.Directory.requester;
         })

(* ---------- arb-replay (§4.1) -------------------------------------------- *)

let finish_replay_driverside c r =
  let st = c.st in
  let p = r.r_pending in
  apply_pending_here c r.r_key p;
  List.iter
    (fun a ->
      if a <> st.self && live c a then
        c.emit
          (Send
             {
               dst = a;
               size = 48;
               payload =
                 O_val { key = r.r_key; o_ts = p.Directory.o_ts; epoch = c.env.epoch };
             }))
    p.Directory.arbiters;
  Hashtbl.remove st.replays r.r_key

let replay_check_complete c ~snap r =
  let p = r.r_pending in
  let needed = List.filter (fun a -> live c a) p.Directory.arbiters in
  if List.for_all (fun a -> List.mem a r.r_acks) needed then begin
    if r.r_data = None then r.r_data <- snap;
    if live c p.Directory.requester then
      c.emit
        (Send
           {
             dst = p.Directory.requester;
             size =
               (64 + match r.r_data with Some d -> Value.size d.value | None -> 0);
             payload =
               O_resp
                 {
                   req_id = p.Directory.req_id;
                   key = r.r_key;
                   o_ts = p.Directory.o_ts;
                   new_replicas = p.Directory.new_replicas;
                   arbiters = p.Directory.arbiters;
                   data = r.r_data;
                   epoch = c.env.epoch;
                 };
           })
    else finish_replay_driverside c r
  end

let start_replay c ~snap key (p : Directory.pending) =
  let st = c.st in
  if not (Hashtbl.mem st.replays key) then begin
    c.emit (Telemetry (Count C_replays));
    let p =
      match p.Directory.data_from with
      | Some src when not (live c src) ->
        let candidates =
          List.filter
            (fun a ->
              live c a
              && Replicas.is_replica p.Directory.new_replicas a
              && a <> p.Directory.requester)
            p.Directory.arbiters
        in
        { p with
          Directory.data_from =
            (match candidates with cand :: _ -> Some cand | [] -> None) }
      | _ -> p
    in
    let r = { r_pending = p; r_key = key; r_acks = [ st.self ]; r_data = None } in
    if p.Directory.data_from = Some st.self then r.r_data <- snap;
    Hashtbl.replace st.replays key r;
    let e = c.env.epoch in
    List.iter
      (fun a ->
        if a <> st.self && live c a then
          c.emit
            (Send
               {
                 dst = a;
                 size = 128;
                 payload =
                   O_inv
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
                       epoch = e;
                     };
               }))
      p.Directory.arbiters;
    replay_check_complete c ~snap r
  end

let arm_replay_check c key o_ts =
  let tok = fresh_token c.st in
  c.emit
    (Set_timer
       { token = tok; after = c.st.config.replay_after_us; kind = T_replay { key; o_ts } })

let set_pending c key (p : Directory.pending) =
  (match dir_entry c key with
  | Some e -> Directory.set_pending e p
  | None -> Hashtbl.replace c.st.side_pending key p);
  c.emit (Set_o_state { key; o_state = Types.O_invalid });
  arm_replay_check c key p.Directory.o_ts

(* ---------- requester ---------------------------------------------------- *)

let finish_outstanding c o result =
  (match o.timer with Some tok -> c.emit (Cancel_timer tok) | None -> ());
  o.timer <- None;
  if o.o_span >= 0 then
    c.emit
      (Telemetry
         (Span_finish
            {
              token = o.o_span;
              outcome =
                (match result with Ok () -> Granted | Error r -> Denied r);
            }));
  if o.live_req then begin
    o.live_req <- false;
    if Result.is_error result then c.emit (Restore_request_state o.o_key);
    c.emit (Unblock { seq = o.o_req_id.seq; result })
  end

let missing_data ~kind ~data ~f_exists =
  (match kind with Acquire | Add_reader -> true | Remove_reader _ -> false)
  && data = None
  && not f_exists

let requester_apply_and_val c ~key ~kind ~o_ts ~replicas ~arbiters ~data =
  let st = c.st in
  let replicas = Replicas.drop_dead replicas ~live:(live c) in
  c.emit (Apply_requester { key; kind; o_ts; replicas; data });
  (match dir_entry c key with
  | Some e ->
    e.Directory.o_ts <- o_ts;
    e.Directory.replicas <- replicas;
    Directory.clear_pending e
  | None -> Hashtbl.remove st.side_pending key);
  Hashtbl.remove st.replays key;
  (match kind with
  | Acquire -> c.emit (Notify_owner_change { key; owner = st.self })
  | Add_reader | Remove_reader _ -> ());
  let e = c.env.epoch in
  List.iter
    (fun a ->
      if a <> st.self then
        c.emit (Send { dst = a; size = 48; payload = O_val { key; o_ts; epoch = e } }))
    arbiters

let check_complete c o ~f_exists =
  let st = c.st in
  match o.proto with
  | None -> ()
  | Some (o_ts, replicas, arbiters) ->
    if List.for_all (fun a -> a = st.self || List.mem a o.acks) arbiters then begin
      Hashtbl.remove st.outstanding o.o_req_id.seq;
      (if missing_data ~kind:o.o_kind ~data:o.data ~f_exists then
         finish_outstanding c o (Error Unavailable)
       else begin
         requester_apply_and_val c ~key:o.o_key ~kind:o.o_kind ~o_ts ~replicas
           ~arbiters ~data:o.data;
         c.emit (Telemetry (Count C_won));
         c.emit (Telemetry (Arb_latency (c.env.now -. o.started)));
         finish_outstanding c o (Ok ())
       end);
      if o.o_span >= 0 then c.emit (Telemetry (Span_forget o.o_span))
    end

let api_request c ~key ~kind ~facts =
  let st = c.st in
  c.emit (Telemetry (Count C_started));
  let seq = st.req_seq in
  st.req_seq <- seq + 1;
  let req_id = { origin = st.self; seq } in
  let live_dirs = List.filter (fun d -> live c d) (c.dir key) in
  match live_dirs with
  | [] -> c.emit (Unblock { seq; result = Error Unavailable })
  | _ ->
    let driver =
      if List.mem st.self live_dirs && dir_entry c key <> None then st.self
      else begin
        let candidates =
          match List.filter (fun d -> d <> st.self) live_dirs with
          | [] -> live_dirs
          | l -> l
        in
        st.rr <- st.rr + 1;
        List.nth candidates (st.rr mod List.length candidates)
      end
    in
    let span =
      if c.env.trace_on then begin
        let tok = fresh_token st in
        c.emit (Telemetry (Span_start { token = tok; key; kind; driver }));
        tok
      end
      else -1
    in
    let o =
      {
        o_req_id = req_id;
        o_key = key;
        o_kind = kind;
        started = c.env.now;
        acks = [];
        proto = None;
        data = None;
        live_req = true;
        timer = None;
        o_span = span;
      }
    in
    Hashtbl.replace st.outstanding seq o;
    c.emit (Set_o_state { key; o_state = Types.O_request });
    let tok = fresh_token st in
    o.timer <- Some tok;
    c.emit
      (Set_timer
         {
           token = tok;
           after = st.config.request_timeout_us;
           kind = T_timeout { seq; key; span };
         });
    c.emit
      (Send
         {
           dst = driver;
           size = 64;
           payload =
             O_req
               {
                 req_id;
                 key;
                 kind;
                 requester = st.self;
                 requester_has_data = facts.f_exists;
                 epoch = c.env.epoch;
               };
         });
    c.emit Flush

(* ---------- driver (a directory node serving REQ) ------------------------ *)

let nack c ~dst ~req_id ~key ?o_ts reason =
  c.emit
    (Send
       { dst; size = 48; payload = O_nack { req_id; key; o_ts; reason; epoch = c.env.epoch } })

let compute_replicas replicas kind ~requester =
  match kind with
  | Acquire -> Replicas.promote replicas ~new_owner:requester
  | Add_reader -> Replicas.add_reader replicas requester
  | Remove_reader r -> Replicas.remove_reader replicas r

let gate_active st = st.gate_epoch >= 0 && Hashtbl.length st.gate_waiting > 0

let handle_req c ~req_id ~key ~kind ~requester ~requester_has_data ~facts =
  let st = c.st in
  if not (is_dir_for c key) then ()
  else (
    c.emit (Telemetry (Count C_driven));
    c.emit (Notify_request { key; kind; requester });
    match Directory.find st.directory key with
    | None -> nack c ~dst:requester ~req_id ~key Unknown_key
    | Some entry ->
      let replicas = entry.Directory.replicas in
      let owner = replicas.Replicas.owner in
      let owner_dead = match owner with Some o -> not (live c o) | None -> true in
      if gate_active st && owner_dead then nack c ~dst:requester ~req_id ~key Recovering
      else if entry.Directory.pending <> None then nack c ~dst:requester ~req_id ~key Busy
      else if kind = Acquire && owner = Some requester then
        c.emit
          (Send
             {
               dst = requester;
               size = 64;
               payload =
                 O_ack
                   {
                     req_id;
                     key;
                     o_ts = entry.Directory.o_ts;
                     new_replicas = replicas;
                     arbiters = [ st.self ];
                     sender = st.self;
                     data = None;
                     epoch = c.env.epoch;
                   };
             })
      else begin
        let need_data =
          (match kind with Acquire | Add_reader -> true | Remove_reader _ -> false)
          && not (requester_has_data && Replicas.is_replica replicas requester)
        in
        let data_from =
          if not need_data then None
          else
            match owner with
            | Some o when live c o -> Some o
            | _ -> List.find_opt (fun r -> live c r) replicas.Replicas.readers
        in
        if need_data && data_from = None then
          nack c ~dst:requester ~req_id ~key Unavailable
        else begin
          let o_ts = Ots.next entry.Directory.o_ts ~node:st.self in
          let arbiters =
            let extra =
              (match owner with Some o when live c o -> [ o ] | _ -> [])
              @ (match data_from with Some nd -> [ nd ] | None -> [])
              @ (match kind with Remove_reader r when live c r -> [ r ] | _ -> [])
            in
            List.filter
              (fun a -> a <> requester)
              (dedup (List.filter (fun dn -> live c dn) (c.dir key) @ extra))
          in
          if owner = Some st.self && facts.f_busy then
            nack c ~dst:requester ~req_id ~key Busy
          else begin
            let p =
              {
                Directory.req_id;
                o_ts;
                base_ts = entry.Directory.o_ts;
                new_replicas = compute_replicas replicas kind ~requester;
                kind;
                requester;
                arbiters;
                data_from;
                driving = true;
                born = c.env.now;
              }
            in
            set_pending c key p;
            let e = c.env.epoch in
            List.iter
              (fun a ->
                if a <> st.self then
                  c.emit
                    (Send
                       {
                         dst = a;
                         size = 128;
                         payload =
                           O_inv
                             {
                               req_id;
                               key;
                               o_ts;
                               base_ts = p.Directory.base_ts;
                               new_replicas = p.Directory.new_replicas;
                               kind;
                               requester;
                               arbiters;
                               data_from;
                               recovery = false;
                               driver = st.self;
                               epoch = e;
                             };
                       }))
              arbiters;
            if data_from = Some st.self then
              c.emit
                (Send_ack_local_data
                   {
                     dst = requester;
                     req_id;
                     key;
                     o_ts;
                     new_replicas = p.Directory.new_replicas;
                     arbiters;
                     epoch = e;
                   })
            else
              c.emit
                (Send
                   {
                     dst = requester;
                     size = 64;
                     payload =
                       O_ack
                         {
                           req_id;
                           key;
                           o_ts;
                           new_replicas = p.Directory.new_replicas;
                           arbiters;
                           sender = st.self;
                           data = None;
                           epoch = e;
                         };
                   })
          end
        end
      end)

(* ---------- arbiter ------------------------------------------------------ *)

let handle_inv c ~req_id ~key ~o_ts ~base_ts ~new_replicas ~kind ~requester
    ~arbiters ~data_from ~recovery ~driver ~facts =
  let st = c.st in
  let reply_dst = if recovery then driver else requester in
  let ack () =
    if data_from = Some st.self then
      c.emit
        (Send_ack_local_data
           { dst = reply_dst; req_id; key; o_ts; new_replicas; arbiters;
             epoch = c.env.epoch })
    else
      c.emit
        (Send
           {
             dst = reply_dst;
             size = 64;
             payload =
               O_ack
                 {
                   req_id;
                   key;
                   o_ts;
                   new_replicas;
                   arbiters;
                   sender = st.self;
                   data = None;
                   epoch = c.env.epoch;
                 };
           })
  in
  let applied = applied_ts c key ~facts in
  let pend = find_pending c key in
  if Ots.equal o_ts applied then ack ()
  else if match pend with Some p -> Ots.equal p.Directory.o_ts o_ts | None -> false
  then ack ()
  else begin
    let beats_applied = Ots.(o_ts > applied) in
    let beats_pending =
      match pend with Some p -> Ots.(o_ts > p.Directory.o_ts) | None -> true
    in
    if beats_applied && beats_pending then begin
      (match pend with
      | Some p when p.Directory.driving ->
        nack c ~dst:p.Directory.requester ~req_id:p.Directory.req_id ~key
          Lost_arbitration
      | Some _ | None -> ());
      (* Track the store transforms an applied base-arbitration performs, so
         the busy decision below sees the post-apply store exactly as the
         pre-split agent (which re-read the table) did. *)
      let f_exists = ref facts.f_exists
      and f_is_owner = ref facts.f_is_owner
      and f_busy = ref facts.f_busy in
      (match pend with
      | Some p when Ots.equal p.Directory.o_ts base_ts ->
        apply_pending_here c key p;
        if p.Directory.requester <> st.self then begin
          match p.Directory.kind with
          | Acquire -> if !f_is_owner then f_is_owner := false
          | Remove_reader r when r = st.self ->
            f_exists := false;
            f_is_owner := false;
            f_busy := false
          | Add_reader | Remove_reader _ -> ()
        end
      | Some _ | None -> ());
      let busy_here =
        !f_busy
        && ((!f_exists && !f_is_owner)
           || match kind with Remove_reader r -> r = st.self | _ -> false)
      in
      if busy_here then nack c ~dst:requester ~req_id ~key Busy
      else begin
        set_pending c key
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
            born = c.env.now;
          };
        ack ()
      end
    end
  end

let handle_val c ~key ~o_ts =
  match find_pending c key with
  | Some p when Ots.equal p.Directory.o_ts o_ts -> apply_pending_here c key p
  | Some _ | None -> ()

(* ---------- dispatch ------------------------------------------------------ *)

let handle_ack c ~req_id ~key ~o_ts ~new_replicas ~arbiters ~sender ~data ~facts =
  let st = c.st in
  if req_id.origin = st.self then begin
    match Hashtbl.find_opt st.outstanding req_id.seq with
    | Some o ->
      (match o.proto with
      | None -> o.proto <- Some (o_ts, new_replicas, arbiters)
      | Some (ts0, _, _) ->
        if not (Ots.equal ts0 o_ts) then o.proto <- Some (o_ts, new_replicas, arbiters));
      (match data with Some _ -> o.data <- data | None -> ());
      if not (List.mem sender o.acks) then o.acks <- sender :: o.acks;
      check_complete c o ~f_exists:facts.f_exists
    | None -> ()
  end
  else begin
    match Hashtbl.find_opt st.replays key with
    | Some r when Ots.equal r.r_pending.Directory.o_ts o_ts ->
      (match data with Some _ -> r.r_data <- data | None -> ());
      if not (List.mem sender r.r_acks) then r.r_acks <- sender :: r.r_acks;
      replay_check_complete c ~snap:facts.f_snapshot r
    | Some _ | None -> ()
  end

let handle_nack c ~req_id ~key ~o_ts ~reason =
  ignore key;
  ignore o_ts;
  let st = c.st in
  if req_id.origin = st.self then begin
    match Hashtbl.find_opt st.outstanding req_id.seq with
    | Some o ->
      Hashtbl.remove st.outstanding req_id.seq;
      c.emit (Telemetry (Count C_nacked));
      finish_outstanding c o (Error reason);
      if o.o_span >= 0 then c.emit (Telemetry (Span_forget o.o_span))
    | None -> ()
  end

let handle_resp c ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data ~facts =
  let st = c.st in
  (* A RESP with no data anywhere (no snapshot, no local copy) is dropped. *)
  if not (missing_data ~kind:Acquire ~data ~f_exists:facts.f_exists) then
    match Hashtbl.find_opt st.outstanding req_id.seq with
    | Some o ->
      Hashtbl.remove st.outstanding req_id.seq;
      c.emit (Telemetry (Count C_won));
      c.emit (Telemetry (Arb_latency (c.env.now -. o.started)));
      requester_apply_and_val c ~key ~kind:o.o_kind ~o_ts ~replicas:new_replicas
        ~arbiters ~data;
      finish_outstanding c o (Ok ());
      if o.o_span >= 0 then c.emit (Telemetry (Span_forget o.o_span))
    | None ->
      let applied = applied_ts c key ~facts in
      let pend_matches =
        match find_pending c key with
        | Some p -> Ots.equal p.Directory.o_ts o_ts
        | None -> false
      in
      if Ots.(o_ts > applied) || pend_matches then
        requester_apply_and_val c ~key ~kind:Acquire ~o_ts ~replicas:new_replicas
          ~arbiters ~data
      else
        let e = c.env.epoch in
        List.iter
          (fun a ->
            if a <> st.self && live c a then
              c.emit
                (Send { dst = a; size = 48; payload = O_val { key; o_ts; epoch = e } }))
          arbiters

let handle_recovery_done st ~sender ~msg_epoch =
  if msg_epoch = st.gate_epoch then begin
    Hashtbl.remove st.gate_waiting sender;
    if Hashtbl.length st.gate_waiting = 0 then st.gate_epoch <- -1
  end

let deliver c ~src ~facts payload =
  let st = c.st in
  let e = c.env.epoch in
  (match payload with
  | O_req { req_id; key; kind; requester; requester_has_data; epoch } ->
    if epoch = e then handle_req c ~req_id ~key ~kind ~requester ~requester_has_data ~facts
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
      handle_inv c ~req_id ~key ~o_ts ~base_ts ~new_replicas ~kind ~requester
        ~arbiters ~data_from ~recovery ~driver ~facts
  | O_ack { req_id; key; o_ts; new_replicas; arbiters; sender; data; epoch } ->
    if epoch = e then
      handle_ack c ~req_id ~key ~o_ts ~new_replicas ~arbiters ~sender ~data ~facts
  | O_val { key; o_ts; epoch } -> if epoch = e then handle_val c ~key ~o_ts
  | O_nack { req_id; key; o_ts; reason; epoch } ->
    if epoch = e then handle_nack c ~req_id ~key ~o_ts ~reason
  | O_resp { req_id; key; o_ts; new_replicas; arbiters; data; epoch } ->
    if epoch = e then handle_resp c ~req_id ~key ~o_ts ~new_replicas ~arbiters ~data ~facts
  | O_recovery_done { node; epoch } ->
    handle_recovery_done st ~sender:node ~msg_epoch:epoch;
    ignore src
  | O_register { key; replicas } ->
    if is_dir_for c key then Directory.register st.directory key replicas
  | O_forget { key } -> Directory.forget st.directory key
  | _ -> ());
  c.emit Flush

(* ---------- timers ------------------------------------------------------- *)

let timer_fire c ~facts kind =
  let st = c.st in
  match kind with
  | T_replay { key; o_ts } ->
    if c.env.self_alive then begin
      match find_pending c key with
      | Some p when Ots.equal p.Directory.o_ts o_ts ->
        Hashtbl.remove st.replays key;
        start_replay c ~snap:facts.f_snapshot key p;
        c.emit Flush;
        arm_replay_check c key o_ts
      | Some _ | None -> ()
    end
  | T_timeout { seq; key; span } -> begin
    match Hashtbl.find_opt st.outstanding seq with
    | Some o ->
      o.timer <- None;
      if o.live_req then begin
        c.emit (Telemetry (Count C_timeout));
        if o.o_span >= 0 then
          c.emit (Telemetry (Span_finish { token = o.o_span; outcome = Timeout }));
        finish_outstanding c o (Error Busy);
        (* Keep the record a while longer: a late win is still applied (the
           app's retry then finds it owns the object). *)
        let tok = fresh_token st in
        c.emit
          (Set_timer
             {
               token = tok;
               after = 4.0 *. st.config.request_timeout_us;
               kind = T_cleanup { seq; span = o.o_span };
             })
      end
    | None ->
      (* A fresh-incarnation [Reset] wiped the record, but — exactly like
         the closure this timer replaces — the pre-crash caller must still
         be timed out and unblocked. *)
      c.emit (Telemetry (Count C_timeout));
      if span >= 0 then begin
        c.emit (Telemetry (Span_finish { token = span; outcome = Timeout }));
        c.emit (Telemetry (Span_finish { token = span; outcome = Denied Busy }))
      end;
      c.emit (Restore_request_state key);
      c.emit (Unblock { seq; result = Error Busy });
      let tok = fresh_token st in
      c.emit
        (Set_timer
           {
             token = tok;
             after = 4.0 *. st.config.request_timeout_us;
             kind = T_cleanup { seq; span };
           })
  end
  | T_cleanup { seq; span } -> begin
    match Hashtbl.find_opt st.outstanding seq with
    | Some o ->
      Hashtbl.remove st.outstanding seq;
      if o.o_span >= 0 then c.emit (Telemetry (Span_forget o.o_span))
    | None -> if span >= 0 then c.emit (Telemetry (Span_forget span))
  end

(* ---------- registration, recovery, membership --------------------------- *)

let seed_directory c key replicas =
  if is_dir_for c key then Directory.register c.st.directory key replicas

let api_register c ~key ~replicas =
  List.iter
    (fun dn ->
      if dn = c.st.self then seed_directory c key replicas
      else if live c dn then
        c.emit (Send { dst = dn; size = 64; payload = O_register { key; replicas } }))
    (c.dir key)

let api_forget c ~key =
  List.iter
    (fun dn ->
      if dn = c.st.self then Directory.forget c.st.directory key
      else if live c dn then
        c.emit (Send { dst = dn; size = 48; payload = O_forget { key } }))
    (c.dir key)

let api_recovery_done c ~epoch:ep =
  let st = c.st in
  let live_list =
    let acc = ref [] in
    Array.iteri (fun i l -> if l then acc := i :: !acc) c.env.live;
    List.rev !acc
  in
  List.iter
    (fun dn ->
      if dn = st.self then handle_recovery_done st ~sender:st.self ~msg_epoch:ep
      else if live c dn then
        c.emit
          (Send { dst = dn; size = 32; payload = O_recovery_done { node = st.self; epoch = ep } }))
    live_list;
  c.emit Flush

let view_change c ~view_epoch ~(vlive : bool array) =
  let st = c.st in
  let lost = ref false in
  Array.iteri (fun i was -> if was && not vlive.(i) then lost := true) st.prev_live;
  st.prev_live <- Array.copy vlive;
  let alive n = vlive.(n) in
  Directory.drop_dead st.directory ~live:alive;
  c.emit (Drop_dead_replicas { live = Array.copy vlive });
  let stale = Hashtbl.fold (fun seq _ acc -> seq :: acc) st.outstanding [] in
  List.iter
    (fun seq ->
      match Hashtbl.find_opt st.outstanding seq with
      | Some o ->
        Hashtbl.remove st.outstanding seq;
        finish_outstanding c o (Error Busy);
        if o.o_span >= 0 then c.emit (Telemetry (Span_forget o.o_span))
      | None -> ())
    stale;
  Hashtbl.reset st.replays;
  if !lost then begin
    st.gate_epoch <- view_epoch;
    Hashtbl.reset st.gate_waiting;
    Array.iteri (fun n l -> if l then Hashtbl.replace st.gate_waiting n ()) vlive
  end;
  (* Replay checks are armed in ascending key order, so timer tokens and
     same-instant timer order depend on the pending set alone, not on
     table layout. *)
  let pendings = ref [] in
  Directory.iter st.directory (fun e ->
      match e.Directory.pending with
      | Some p -> pendings := (e.Directory.key, p) :: !pendings
      | None -> ());
  Hashtbl.iter (fun key p -> pendings := (key, p) :: !pendings) st.side_pending;
  List.iter
    (fun (key, (p : Directory.pending)) -> arm_replay_check c key p.Directory.o_ts)
    (List.sort (fun (a, _) (b, _) -> compare (a : Types.key) b) !pendings)

let reset st =
  Hashtbl.reset st.side_pending;
  Hashtbl.reset st.outstanding;
  Hashtbl.reset st.replays;
  Hashtbl.reset st.gate_waiting;
  st.gate_epoch <- -1;
  Directory.clear st.directory

(* ---------- the one entry point ------------------------------------------ *)

let no_env =
  { now = 0.0; epoch = 0; live = [||]; self_alive = true; trace_on = false }

let env_of = function
  | Deliver { env; _ }
  | Api_request { env; _ }
  | Api_register { env; _ }
  | Api_forget { env; _ }
  | Api_recovery_done { env; _ }
  | Timer_fire { env; _ }
  | View_change { env; _ } ->
    env
  | Api_seed _ | Reset -> no_env

let handle ~dir st input =
  let acc = ref [] in
  let emit e = acc := e :: !acc in
  let c = { st; env = env_of input; dir; emit } in
  (match input with
  | Deliver { src; payload; facts; _ } -> deliver c ~src ~facts payload
  | Api_request { key; kind; facts; _ } -> api_request c ~key ~kind ~facts
  | Api_register { key; replicas; _ } -> api_register c ~key ~replicas
  | Api_forget { key; _ } -> api_forget c ~key
  | Api_seed { key; replicas } -> seed_directory c key replicas
  | Api_recovery_done { epoch; _ } -> api_recovery_done c ~epoch
  | Timer_fire { kind; facts; _ } -> timer_fire c ~facts kind
  | View_change { view_epoch; live; _ } -> view_change c ~view_epoch ~vlive:live
  | Reset -> reset st);
  (st, List.rev !acc)

(* ---------- deep copy + canonical fingerprint (model checking) ----------- *)

let copy_outstanding o =
  {
    o_req_id = o.o_req_id;
    o_key = o.o_key;
    o_kind = o.o_kind;
    started = o.started;
    acks = o.acks;
    proto = o.proto;
    data = o.data;
    live_req = o.live_req;
    timer = o.timer;
    o_span = o.o_span;
  }

let copy_replay r =
  { r_pending = r.r_pending; r_key = r.r_key; r_acks = r.r_acks; r_data = r.r_data }

let copy st =
  let directory = Directory.create ~node:st.self in
  Directory.iter st.directory (fun e ->
      Directory.register directory e.Directory.key e.Directory.replicas;
      match Directory.find directory e.Directory.key with
      | Some e' ->
        e'.Directory.o_state <- e.Directory.o_state;
        e'.Directory.o_ts <- e.Directory.o_ts;
        e'.Directory.replicas <- e.Directory.replicas;
        e'.Directory.pending <- e.Directory.pending
      | None -> ());
  let side_pending = Hashtbl.copy st.side_pending in
  let outstanding = Hashtbl.create (Hashtbl.length st.outstanding * 2 + 1) in
  Hashtbl.iter (fun k o -> Hashtbl.replace outstanding k (copy_outstanding o)) st.outstanding;
  let replays = Hashtbl.create (Hashtbl.length st.replays * 2 + 1) in
  Hashtbl.iter (fun k r -> Hashtbl.replace replays k (copy_replay r)) st.replays;
  {
    config = st.config;
    self = st.self;
    directory;
    side_pending;
    outstanding;
    replays;
    req_seq = st.req_seq;
    rr = st.rr;
    gate_epoch = st.gate_epoch;
    gate_waiting = Hashtbl.copy st.gate_waiting;
    prev_live = Array.copy st.prev_live;
    token_seq = st.token_seq;
  }

(* The fingerprint is canonical: hashtables are dumped in sorted key order
   and timer/span tokens are reduced to presence bits, so two states that
   differ only in allocation history (token counters) or table iteration
   order collapse to one explored state. *)

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

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let fingerprint st =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "n%d rr=%d seq=%d gate=%d gw=[%s] pl=[%s]@," st.self st.rr
    st.req_seq st.gate_epoch
    (String.concat ";"
       (List.map (fun (n, ()) -> string_of_int n) (sorted_bindings st.gate_waiting)))
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
    (sorted_bindings st.side_pending);
  List.iter
    (fun (seq, o) ->
      Format.fprintf ppf "O%d k=%d %a t0=%g acks=[%s] proto=%s data=%a live=%b tmr=%b@,"
        seq o.o_key Messages.pp_kind o.o_kind o.started
        (String.concat ";" (List.map string_of_int (List.sort compare o.acks)))
        (match o.proto with
        | None -> "-"
        | Some (ts, nr, arb) ->
          Format.asprintf "%a/%a/[%s]" Ots.pp ts Replicas.pp nr
            (String.concat ";" (List.map string_of_int arb)))
        pp_snap o.data o.live_req (o.timer <> None))
    (sorted_bindings st.outstanding);
  List.iter
    (fun (key, r) ->
      Format.fprintf ppf "R%d %a acks=[%s] data=%a@," key pp_pending r.r_pending
        (String.concat ";" (List.map string_of_int (List.sort compare r.r_acks)))
        pp_snap r.r_data)
    (sorted_bindings st.replays);
  Format.pp_print_flush ppf ();
  Buffer.contents b
