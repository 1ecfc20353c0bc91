module Engine = Zeus_sim.Engine
module Fifo = Zeus_sim.Fifo
module Resource = Zeus_sim.Resource
module Rng = Zeus_sim.Rng
module Stats = Zeus_sim.Stats
module Metrics = Zeus_telemetry.Metrics
module Tspan = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Transport = Zeus_net.Transport
module Fabric = Zeus_net.Fabric
module Service = Zeus_membership.Service
module Own = Zeus_ownership
module Com = Zeus_commit
module Loc = Zeus_locality
open Zeus_store

(* A received payload waiting for or in datastore-worker service.  Each node
   pools these records, each with its service closure built once, so a
   received message allocates nothing to be queued and handled. *)
type Zeus_net.Msg.payload += No_payload

type delivery = {
  mutable src : Types.node_id;
  mutable payload : Zeus_net.Msg.payload;
  serve : unit -> unit;
}

let no_delivery = { src = -1; payload = No_payload; serve = ignore }

(* A locally committed write transaction in reliable commit: what its
   datastore-worker job and its [on_durable] read.  Pooled like
   [delivery], both closures built once per record; the record is free
   again once [on_durable] has read it.  Its two times are the slot's,
   boxes and all (see [ctx]). *)
type flight = {
  mutable f_thread : int;
  mutable f_root : Tspan.span;
  mutable f_updates : Txn.update list;
  mutable f_start : float;
  mutable f_lc_done : float;
  submit : unit -> unit;
  on_durable : unit -> unit;
}

let no_flight =
  {
    f_thread = -1;
    f_root = Tspan.null_span;
    f_updates = [];
    f_start = nan;
    f_lc_done = nan;
    submit = ignore;
    on_durable = ignore;
  }

type front = ..
type front += No_front

type t = {
  id : Types.node_id;
  config : Config.t;
  engine : Engine.t;
  transport : Transport.t;
  membership : Service.t;
  table : Table.t;
  home_replicas : Replicas.t;
      (* default placement of the objects this node owns at bootstrap or
         creates; immutable, so every such object shares it *)
  mutable ownership : Own.Agent.t option;  (* set right after create *)
  mutable commit : Com.Agent.t option;
  mutable locality : Loc.Engine.t option;  (* predictive placement, opt-in *)
  ds : Resource.t;
  rng : Rng.t;
  history : History.t option;
  outstanding_rc : int array;  (* per app thread: in-flight reliable commits *)
  waiters : (unit -> unit) Fifo.t array;
  spare : delivery Fifo.t;  (* deliveries free for reuse *)
  flights : flight Fifo.t;  (* reliable-commit records free for reuse *)
  mutable slots : ctx array;
      (* per app thread: the slot its transactions run in; set right after
         create *)
  mutable app_handler : (src:Types.node_id -> Zeus_net.Msg.payload -> unit) option;
  mutable front : front;
  (* Phase telemetry: histograms live on the cluster hub's registry
     (Histogram.v is idempotent by name, so all nodes feed the same five);
     spans go to the hub's trace sink. *)
  tspans : Tspan.t;
  h_own : Metrics.Histogram.h;
  h_exec : Metrics.Histogram.h;
  h_lc : Metrics.Histogram.h;
  h_repl : Metrics.Histogram.h;
  h_e2e : Metrics.Histogram.h;
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_ro_committed : int;
  mutable n_retries : int;
  mutable n_txn_with_ownership : int;
}

(* ------ transaction slots -------------------------------------------------- *)

(* A transaction runs in a slot, the per-thread record that carries it
   through all its attempts.  A thread runs one transaction at a time, so
   its slot, the slot's [Txn.t] and the phase callbacks below are built
   once, with the node, and reused: an attempt on owned objects allocates
   nothing here.  A slot is free again before the caller's continuation
   runs, which may start the thread's next transaction at once; a second
   transaction issued while the thread's slot is busy gets a fresh slot,
   and the thread keeps whichever slot finishes last. *)

and ctx = {
  node : t;
  thread : int;
  txn : Txn.t;  (* reinitialized per attempt *)
  mutable busy : bool;  (* a transaction runs in the slot *)
  (* the transaction *)
  mutable read_only : bool;
  mutable body : ctx -> (unit -> unit) -> unit;
  mutable k : Txn.outcome -> unit;
  mutable root : Tspan.span;  (* root "txn" span, shared by all attempts *)
  mutable attempt : int;  (* attempts before the current one *)
  mutable updates : Txn.update list;  (* committed, waiting for a pipeline slot *)
  (* The transaction's and the attempt's times (sim µs): its compute time,
     its start, and the phase bounds that cut the committing attempt into
     ownership / execute / local-commit / replicate.  Each is the engine's
     clock, the caller's [exec_us] or [nan], stored as the box it came in:
     a float field of this mixed record holds a pointer, so setting a
     time boxes nothing, and a histogram is handed two boxes that already
     exist ([Histogram.observe_span]) instead of a fresh difference. *)
  mutable exec_us : float;
  mutable dispatch_us : float;
      (* [exec_us +. Config.txn_dispatch_us], the delay before the body
         runs: summed when [exec_us] changes, so the transactions of a
         thread that share a compute time share its box *)
  mutable txn_start : float;
  mutable body_start : float;
  mutable own_first : float;  (* nan: no ownership request this attempt *)
  mutable own_last : float;
  mutable commit_entry : float;
  mutable lc_done : float;
  (* the attempt *)
  mutable gen : int;  (* attempts started in this slot *)
  mutable running : bool;
  mutable reads : (Types.key * int) list;  (* kept only for the history *)
  mutable used_ownership : bool;
  mutable own_count : int;
  (* the operation blocked on an ownership request, issued by attempt
     [acq_gen] (-1: none) *)
  mutable acq_gen : int;
  mutable op : op;
  mutable op_key : Types.key;
  mutable op_value : Value.t;
  mutable op_f : Value.t -> Value.t;
  mutable op_k : unit -> unit;
  mutable op_kv : Value.t -> unit;
  (* built once per slot *)
  on_dispatch : unit -> unit;  (* run the body *)
  on_commit : unit -> unit;  (* the body's commit continuation *)
  on_local_commit : unit -> unit;
  on_retry : unit -> unit;  (* the next attempt, after back-off *)
  on_pipeline_slot : unit -> unit;  (* a pipeline-full waiter *)
  on_request : unit -> unit;  (* issue the pending ownership request *)
  on_unblock : (unit, Own.Messages.nack_reason) result -> unit;
}

and op = Op_read | Op_write | Op_read_write | Op_delete

let id t = t.id
let table t = t.table
let home_replicas t = t.home_replicas
let engine t = t.engine
let config t = t.config
let ds t = t.ds
let ownership_agent t = Option.get t.ownership
let commit_agent t = Option.get t.commit
let locality t = t.locality

let note_local_access t ~key ~write =
  match t.locality with
  | Some loc -> Loc.Engine.note_local_access loc ~key ~write
  | None -> ()
let committed t = t.n_committed
let aborted t = t.n_aborted
let ro_committed t = t.n_ro_committed
let retries t = t.n_retries
let txns_with_ownership t = t.n_txn_with_ownership
let ownership_latency t = Own.Agent.latency_samples (ownership_agent t)
let is_alive t = Fabric.is_alive (Transport.fabric t.transport) t.id
let set_app_handler t fn = t.app_handler <- Some fn
let front t = t.front
let set_front t f = t.front <- f

(* ------ CPU cost of one received protocol message ------------------------ *)

let payload_cost payload =
  let c = Config.msg_proc_us in
  let bytes n = float_of_int n *. Config.byte_proc_us in
  match payload with
  | Com.Messages.R_inv { writes; _ } ->
    c +. bytes (List.fold_left (fun a (u : Txn.update) -> a + Value.size u.data) 0 writes)
  | Own.Messages.O_ack { data = Some d; _ } | Own.Messages.O_resp { data = Some d; _ } ->
    c +. bytes (Value.size d.Own.Messages.value)
  | _ -> c

let obj_busy t key =
  let obj = Table.find t.table key in
  obj != Obj.dummy && Obj.busy obj

(* ------ message dispatch ------------------------------------------------- *)

let serve t d =
  let src = d.src and payload = d.payload in
  d.payload <- No_payload;
  Fifo.push t.spare d;
  if not (Own.Agent.handle (ownership_agent t) ~src payload) then
    if not (Com.Agent.handle (commit_agent t) ~src payload) then
      if
        not
          (match t.locality with
          | Some loc -> Loc.Engine.handle loc ~src payload
          | None -> false)
      then match t.app_handler with Some fn -> fn ~src payload | None -> ()

let receive t ~src payload =
  (* Feed the failure detector first: any traffic from [src] is a liveness
     signal, and membership heartbeats are consumed here (they never reach
     the protocol agents). *)
  if not (Service.observe t.membership ~dst:t.id ~src payload) then begin
    let d =
      if Fifo.is_empty t.spare then begin
        let rec d = { src; payload; serve = (fun () -> serve t d) } in
        d
      end
      else Fifo.pop t.spare
    in
    d.src <- src;
    d.payload <- payload;
    (* Every received message costs datastore-worker CPU. *)
    Resource.submit t.ds ~service:(payload_cost payload) d.serve
  end

(* ------ sharding control -------------------------------------------------- *)

let maybe_trim t key =
  if t.config.Config.auto_trim then
    let obj = Table.find t.table key in
    if obj != Obj.dummy && Obj.is_owner obj then begin
      let r = obj.Obj.o_replicas in
      if Replicas.count r > t.config.Config.replication_degree then
        match List.rev r.Replicas.readers with
        | victim :: _ ->
          (* Out of the critical path (§6.2): wait for the pipeline to
             drain, then reliably discard a reader. *)
          let rec attempt tries =
            ignore
              (Engine.schedule t.engine ~after:20.0 (fun () ->
                   if obj_busy t key && tries > 0 then attempt (tries - 1)
                   else
                     Own.Agent.request (ownership_agent t) ~key
                       ~kind:(Own.Messages.Remove_reader victim)
                       ~k:(fun _ -> ())))
          in
          attempt 10
        | [] -> ()
    end

let acquire_ownership t key k =
  let obj = Table.find t.table key in
  if obj != Obj.dummy && Obj.is_owner obj && obj.Obj.o_state = Types.O_valid then k (Ok ())
  else
    ignore
      (Engine.schedule t.engine ~after:Config.ownership_dispatch_us (fun () ->
           Own.Agent.request (ownership_agent t) ~key ~kind:Own.Messages.Acquire
             ~k:(fun result ->
               if Result.is_ok result then maybe_trim t key;
               k result)))

let add_reader t key k =
  if Table.mem t.table key then k (Ok ())
  else Own.Agent.request (ownership_agent t) ~key ~kind:Own.Messages.Add_reader ~k

let role t key =
  let obj = Table.find t.table key in
  if obj == Obj.dummy then None else Some obj.Obj.role

(* ------ transactions ------------------------------------------------------ *)

(* Every step of an attempt is a top-level function of its slot, and the
   events an attempt schedules are the slot's prebuilt callbacks. *)

let recording t = match t.history with Some _ -> true | None -> false

let note_read ctx key =
  let t = ctx.node in
  if recording t then begin
    let obj = Table.find t.table key in
    if obj != Obj.dummy then ctx.reads <- (key, obj.Obj.t_version) :: ctx.reads
  end

(* ------ commit machinery -------------------------------------------------- *)

let release_pipeline_slot t thread =
  t.outstanding_rc.(thread) <- t.outstanding_rc.(thread) - 1;
  if not (Fifo.is_empty t.waiters.(thread)) then (Fifo.pop t.waiters.(thread)) ()

(* Created objects need their replica set assigned (and the directory told)
   before the reliable commit picks followers. *)
let rec prepare_created t = function
  | [] -> ()
  | (u : Txn.update) :: rest ->
    let obj = Table.find t.table u.key in
    if obj != Obj.dummy && Obj.is_owner obj && obj.Obj.o_replicas == Replicas.none then begin
      obj.Obj.o_replicas <- t.home_replicas;
      Own.Agent.register_object (ownership_agent t) u.key t.home_replicas
    end;
    prepare_created t rest

let rec update_bytes acc = function
  | [] -> acc
  | (u : Txn.update) :: rest -> update_bytes (acc + Value.size u.data) rest

(* A write transaction's updates are durable: close its phases and free
   its pipeline slot.  The flight goes back to the pool first, as the
   freed pipeline slot may start a waiting commit that takes it. *)
let durable t f =
  let durable = Engine.now t.engine in
  let lc_done = f.f_lc_done in
  let thread = f.f_thread and root = f.f_root and updates = f.f_updates in
  Metrics.Histogram.observe_span t.h_repl ~start:lc_done ~stop:durable;
  Metrics.Histogram.observe_span t.h_e2e ~start:f.f_start ~stop:durable;
  f.f_updates <- [];
  Fifo.push t.flights f;
  if not (Tspan.is_null root) then
    Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:thread ~parent:root
      ~args:[ ("writes", string_of_int (List.length updates)) ]
      ~start:lc_done ~stop:durable "replicate";
  Tspan.finish_at t.tspans ~stop:durable ~args:[ ("result", "committed") ] root;
  (match t.history with
  | Some h ->
    let writes = List.map (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version)) updates in
    History.record_durable h ~writes ~time:(Engine.now t.engine)
  | None -> ());
  release_pipeline_slot t thread

let submit t f =
  Com.Agent.commit ~parent:f.f_root (commit_agent t) ~thread:f.f_thread ~updates:f.f_updates
    ~on_durable:f.on_durable

let new_flight t =
  let rec f =
    {
      f_thread = -1;
      f_root = Tspan.null_span;
      f_updates = [];
      f_start = nan;
      f_lc_done = nan;
      submit = (fun () -> submit t f);
      on_durable = (fun () -> durable t f);
    }
  in
  f

(* Start the reliable commit of the slot's locally committed updates. *)
let replicate ctx updates =
  let t = ctx.node in
  let bytes = update_bytes 0 updates in
  let followers = t.config.Config.replication_degree - 1 in
  let send_cost =
    float_of_int followers
    *. (Config.msg_proc_us +. (float_of_int bytes *. Config.byte_proc_us))
  in
  t.outstanding_rc.(ctx.thread) <- t.outstanding_rc.(ctx.thread) + 1;
  let f = if Fifo.is_empty t.flights then new_flight t else Fifo.pop t.flights in
  f.f_thread <- ctx.thread;
  if f.f_root != ctx.root then f.f_root <- ctx.root;
  f.f_updates <- updates;
  f.f_start <- ctx.txn_start;
  f.f_lc_done <- ctx.lc_done;
  (* Broadcasting the R-INVs consumes datastore-worker CPU at the
     coordinator; the app thread does NOT wait (§5.2). *)
  Resource.submit t.ds ~service:send_cost f.submit

let backoff t attempt =
  let d = Config.backoff_base_us *. (2.0 ** float_of_int (min attempt 12)) in
  let d = Float.min d Config.backoff_max_us in
  d *. (0.5 +. Rng.float t.rng 1.0)

(* Retrospective phase spans for the committing attempt, plus the
   always-on phase histograms.  Ownership = [first acquisition issued, last
   grant]; zero-length at body dispatch for all-local attempts.  Execute =
   grant (or dispatch) to commit entry; the three phases are sequential and
   nested inside the root txn span. *)
let finish_phases ctx =
  let t = ctx.node in
  let ce = ctx.commit_entry and lc_done = ctx.lc_done in
  let no_own = Float.is_nan ctx.own_first in
  let own_start = if no_own then ctx.body_start else ctx.own_first in
  let own_end = if no_own then ctx.body_start else ctx.own_last in
  Metrics.Histogram.observe_span t.h_own ~start:own_start ~stop:own_end;
  Metrics.Histogram.observe_span t.h_exec ~start:own_end ~stop:ce;
  Metrics.Histogram.observe_span t.h_lc ~start:ce ~stop:lc_done;
  if not (Tspan.is_null ctx.root) then begin
    let ph name start stop args =
      Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:ctx.thread ~parent:ctx.root ~args
        ~start ~stop name
    in
    ph "ownership" own_start own_end [ ("acquisitions", string_of_int ctx.own_count) ];
    ph "execute" own_end ce [];
    ph "local_commit" ce lc_done []
  end

(* The transaction is over: hand the slot back, then tell the caller, who
   may start the thread's next transaction in it at once. *)
let finish ctx outcome =
  let slots = ctx.node.slots in
  ctx.busy <- false;
  if slots.(ctx.thread) != ctx then slots.(ctx.thread) <- ctx;
  ctx.k outcome

let start_attempt ctx =
  let t = ctx.node in
  if not (is_alive t) then begin
    Tspan.finish t.tspans ~args:[ ("result", "node_dead") ] ctx.root;
    finish ctx (Txn.Aborted Txn.Node_dead)
  end
  else begin
    Txn.reinit ctx.txn ~read_only:ctx.read_only ~thread:ctx.thread;
    ctx.gen <- ctx.gen + 1;
    ctx.running <- true;
    if ctx.reads != [] then ctx.reads <- [];
    ctx.used_ownership <- false;
    ctx.own_count <- 0;
    ctx.body_start <- nan;
    ctx.own_first <- nan;
    ctx.own_last <- nan;
    ctx.commit_entry <- nan;
    ignore
      (Engine.schedule t.engine ~after:ctx.dispatch_us ctx.on_dispatch)
  end

let dispatch ctx =
  ctx.body_start <- Engine.now ctx.node.engine;
  ctx.body ctx ctx.on_commit

let commit_entry ctx =
  if ctx.running then begin
    let t = ctx.node in
    ctx.commit_entry <- Engine.now t.engine;
    ignore (Engine.schedule t.engine ~after:Config.local_commit_us ctx.on_local_commit)
  end

let fail ctx reason =
  if ctx.running then begin
    ctx.running <- false;
    Txn.abort ctx.txn;
    let t = ctx.node in
    t.n_retries <- t.n_retries + 1;
    let n = ctx.attempt in
    if n >= Config.max_retries then begin
      if not ctx.read_only then t.n_aborted <- t.n_aborted + 1;
      Tspan.finish t.tspans
        ~args:[ ("result", "aborted"); ("attempts", string_of_int (n + 1)) ]
        ctx.root;
      finish ctx (Txn.Aborted reason)
    end
    else ignore (Engine.schedule t.engine ~after:(backoff t n) ctx.on_retry)
  end

let retry ctx =
  ctx.attempt <- ctx.attempt + 1;
  start_attempt ctx

let replicate_then_finish ctx updates =
  replicate ctx updates;
  finish ctx Txn.Committed

(* A commit that waited for a pipeline slot goes on. *)
let resume_commit ctx =
  let updates = ctx.updates in
  ctx.updates <- [];
  replicate_then_finish ctx updates

let local_commit ctx =
  let t = ctx.node in
  match Txn.local_commit ctx.txn with
  | Error reason -> fail ctx reason
  | Ok [] ->
    ctx.running <- false;
    let lc_done = Engine.now t.engine in
    ctx.lc_done <- lc_done;
    if ctx.read_only then begin
      t.n_ro_committed <- t.n_ro_committed + 1;
      match t.history with
      | Some h when ctx.reads <> [] ->
        History.record_ro h ~node:t.id ~reads:ctx.reads ~time:(Engine.now t.engine)
      | Some _ | None -> ()
    end
    else begin
      t.n_committed <- t.n_committed + 1;
      if ctx.used_ownership then t.n_txn_with_ownership <- t.n_txn_with_ownership + 1
    end;
    finish_phases ctx;
    Metrics.Histogram.observe_span t.h_e2e ~start:ctx.txn_start ~stop:lc_done;
    (* Nothing written: durable at local commit. *)
    if not (Tspan.is_null ctx.root) then
      Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:ctx.thread ~parent:ctx.root
        ~args:[ ("writes", "0") ]
        ~start:lc_done ~stop:lc_done "replicate";
    Tspan.finish_at t.tspans ~stop:lc_done ~args:[ ("result", "committed") ] ctx.root;
    finish ctx Txn.Committed
  | Ok updates ->
    ctx.running <- false;
    t.n_committed <- t.n_committed + 1;
    if ctx.used_ownership then t.n_txn_with_ownership <- t.n_txn_with_ownership + 1;
    prepare_created t updates;
    ctx.lc_done <- Engine.now t.engine;
    finish_phases ctx;
    (match t.history with
    | Some h ->
      History.record_commit h ~node:t.id ~reads:ctx.reads
        ~writes:(List.map (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version)) updates)
        ~time:(Engine.now t.engine)
    | None -> ());
    if t.outstanding_rc.(ctx.thread) >= t.config.Config.pipeline_depth then begin
      (* Pipeline full: flow-control the thread, which keeps its slot
         until the waiter runs. *)
      ctx.updates <- updates;
      Fifo.push t.waiters.(ctx.thread) ctx.on_pipeline_slot
    end
    else
      (* Pipelined: the app continues immediately. *)
      replicate_then_finish ctx updates

(* ------ operations -------------------------------------------------------- *)

(* Where write-level ownership of [key] stands at this node.  [`Owned] lets
   the operation go on at once: the common local case allocates nothing. *)
let own_state ctx key =
  let t = ctx.node in
  note_local_access t ~key ~write:true;
  let obj = Table.find t.table key in
  if obj == Obj.dummy then `Absent
  else if Obj.is_owner obj && obj.Obj.o_state = Types.O_valid then `Owned
  else if obj.Obj.o_state <> Types.O_valid then
    (* An arbitration for this object is pending at this node (we are an
       arbiter or a requester): do not touch it; retry with back-off until
       the ownership protocol settles (§4.1). *)
    `Pending
  else `Absent

(* Secure write-level ownership of [key] (§3.2 step 1) for the operation
   [op], whose arguments the caller has put in the slot; it resumes on the
   grant.  The app thread blocks on the request — the only blocking point
   in Zeus. *)
let acquire ctx op key =
  let t = ctx.node in
  ctx.used_ownership <- true;
  let acq_start = Engine.now t.engine in
  if Float.is_nan ctx.own_first then ctx.own_first <- acq_start;
  ctx.op <- op;
  ctx.op_key <- key;
  ctx.acq_gen <- ctx.gen;
  ignore (Engine.schedule t.engine ~after:Config.ownership_dispatch_us ctx.on_request)

let request ctx =
  let root = ctx.root in
  Own.Agent.request
    ?parent:(if Tspan.is_null root then None else Some root)
    (ownership_agent ctx.node) ~key:ctx.op_key ~kind:Own.Messages.Acquire ~k:ctx.on_unblock

let read_owned ctx key k =
  if recording ctx.node && not (Txn.written ctx.txn key) then note_read ctx key;
  match Txn.open_read ctx.txn key with
  | Ok v -> k v
  | Error reason -> fail ctx reason

let write_owned ctx key value k =
  match Txn.open_write ctx.txn key with
  | Ok _ ->
    Txn.put ctx.txn key value;
    k ()
  | Error reason -> fail ctx reason

let read_write_owned ctx key f k =
  if recording ctx.node && not (Txn.written ctx.txn key) then note_read ctx key;
  match Txn.open_write ctx.txn key with
  | Ok v ->
    let v' = f v in
    Txn.put ctx.txn key v';
    k v'
  | Error reason -> fail ctx reason

let delete_owned ctx key k =
  match Txn.free_obj ctx.txn key with
  | Ok () -> k ()
  | Error reason -> fail ctx reason

(* An Acquire's outcome.  It counts only while the attempt that issued
   it is the slot's current one; on a grant the parked operation goes
   on. *)
let unblock ctx result =
  if ctx.acq_gen = ctx.gen then begin
    ctx.acq_gen <- -1;
    let t = ctx.node and key = ctx.op_key in
    ctx.own_last <- Engine.now t.engine;
    ctx.own_count <- ctx.own_count + 1;
    if ctx.running then
      match result with
      | Ok () -> (
        maybe_trim t key;
        match ctx.op with
        | Op_read -> read_owned ctx key ctx.op_kv
        | Op_write -> write_owned ctx key ctx.op_value ctx.op_k
        | Op_read_write -> read_write_owned ctx key ctx.op_f ctx.op_kv
        | Op_delete -> delete_owned ctx key ctx.op_k)
      | Error _ -> fail ctx (Txn.Ownership_refused key)
  end

let read ctx key k =
  if ctx.running then
    if Txn.is_read_only ctx.txn then begin
      note_local_access ctx.node ~key ~write:false;
      note_read ctx key;
      match Txn.open_read ctx.txn key with
      | Ok v -> k v
      | Error reason -> fail ctx reason
    end
    else
      match own_state ctx key with
      | `Owned -> read_owned ctx key k
      | `Pending -> fail ctx (Txn.Ownership_refused key)
      | `Absent ->
        ctx.op_kv <- k;
        acquire ctx Op_read key

let write ctx key value k =
  if ctx.running then
    match own_state ctx key with
    | `Owned -> write_owned ctx key value k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent ->
      ctx.op_value <- value;
      ctx.op_k <- k;
      acquire ctx Op_write key

let read_write ctx key f k =
  if ctx.running then
    match own_state ctx key with
    | `Owned -> read_write_owned ctx key f k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent ->
      ctx.op_f <- f;
      ctx.op_kv <- k;
      acquire ctx Op_read_write key

let insert ctx key value = if ctx.running then Txn.create_obj ctx.txn key value

let delete ctx key k =
  if ctx.running then
    match own_state ctx key with
    | `Owned -> delete_owned ctx key k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent ->
      ctx.op_k <- k;
      acquire ctx Op_delete key

let new_slot t thread =
  let rec ctx =
    {
      node = t;
      thread;
      txn = Txn.create_write t.table ~thread;
      busy = false;
      read_only = false;
      body = (fun _ _ -> ());
      k = ignore;
      root = Tspan.null_span;
      attempt = 0;
      updates = [];
      exec_us = 0.0;
      dispatch_us = 0.0 +. Config.txn_dispatch_us;
      txn_start = nan;
      body_start = nan;
      own_first = nan;
      own_last = nan;
      commit_entry = nan;
      lc_done = nan;
      gen = 0;
      running = false;
      reads = [];
      used_ownership = false;
      own_count = 0;
      acq_gen = -1;
      op = Op_read;
      op_key = -1;
      op_value = Value.empty;
      op_f = Fun.id;
      op_k = ignore;
      op_kv = ignore;
      on_dispatch = (fun () -> dispatch ctx);
      on_commit = (fun () -> commit_entry ctx);
      on_local_commit = (fun () -> local_commit ctx);
      on_retry = (fun () -> retry ctx);
      on_pipeline_slot = (fun () -> resume_commit ctx);
      on_request = (fun () -> request ctx);
      on_unblock = (fun result -> unblock ctx result);
    }
  in
  ctx

(* ------ construction ------------------------------------------------------ *)

let create ?telemetry ~config ~id ~transport ~membership ~history () =
  let engine = Fabric.engine (Transport.fabric transport) in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let hm = Hub.metrics hub in
  let t =
    {
      id;
      config;
      engine;
      transport;
      membership;
      table = Table.create ~node:id;
      home_replicas = Config.default_replicas config ~owner:id;
      ownership = None;
      commit = None;
      locality = None;
      ds = Resource.create engine ~servers:Config.ds_threads;
      rng = Engine.fork_rng engine;
      history;
      outstanding_rc = Array.make config.Config.app_threads 0;
      waiters = Array.init config.Config.app_threads (fun _ -> Fifo.create ~dummy:ignore);
      spare = Fifo.create ~dummy:no_delivery;
      flights = Fifo.create ~dummy:no_flight;
      slots = [||];
      app_handler = None;
      front = No_front;
      tspans = Hub.trace hub;
      h_own = Metrics.Histogram.v hm "txn.ownership_us";
      h_exec = Metrics.Histogram.v hm "txn.execute_us";
      h_lc = Metrics.Histogram.v hm "txn.local_commit_us";
      h_repl = Metrics.Histogram.v hm "txn.replication_us";
      h_e2e = Metrics.Histogram.v hm "txn.e2e_us";
      n_committed = 0;
      n_aborted = 0;
      n_ro_committed = 0;
      n_retries = 0;
      n_txn_with_ownership = 0;
    }
  in
  t.slots <- Array.init config.Config.app_threads (new_slot t);
  let ownership =
    Own.Agent.create ?telemetry ~config:config.Config.ownership ~node:id
      ~dir_nodes_of:(fun key -> Config.dir_nodes_for config ~key)
      ~table:t.table ~membership transport
  in
  t.ownership <- Some ownership;
  if config.Config.locality.Loc.Engine.enabled then begin
    let loc =
      Loc.Engine.create ?telemetry ~config:config.Config.locality ~node:id
        ~nodes:config.Config.nodes ~engine ~transport ~agent:ownership
        ~is_owner:(fun key ->
          let obj = Table.find t.table key in
          obj != Obj.dummy && Obj.is_owner obj && obj.Obj.o_state = Types.O_valid)
        ()
    in
    t.locality <- Some loc;
    Own.Agent.set_observer ownership
      {
        Own.Agent.on_request =
          (fun ~key ~kind ~requester -> Loc.Engine.note_request loc ~key ~kind ~requester);
        on_owner_change =
          (fun ~key ~owner -> Loc.Engine.note_owner_change loc ~key ~owner);
      }
  end;
  let com_cb =
    {
      Com.Agent.on_freed = (fun key -> Own.Agent.forget_object ownership key);
      recovery_drained =
        (fun ~epoch -> Own.Agent.announce_recovery_done ownership ~epoch);
    }
  in
  let commit =
    Com.Agent.create ?telemetry ~clear_marks:config.Config.commit_clear_marks ~node:id
      ~table:t.table ~membership ~callbacks:com_cb transport
  in
  t.commit <- Some commit;
  Transport.set_handler transport id (fun ~src payload -> receive t ~src payload);
  t

(* A rejoining node comes back as a fresh incarnation (§3.1 crash-stop):
   no objects, no protocol state, empty pipelines. *)
let reset t =
  Table.clear t.table;
  Own.Agent.reset (ownership_agent t);
  Com.Agent.reset (commit_agent t);
  Array.fill t.outstanding_rc 0 (Array.length t.outstanding_rc) 0;
  Array.iter Fifo.clear t.waiters

let slot t ~thread = t.slots.(thread)

let run_txn ~read_only t ~thread ~exec_us ~body k =
  let ctx =
    let slot = t.slots.(thread) in
    if slot.busy then new_slot t thread else slot
  in
  ctx.busy <- true;
  if exec_us <> ctx.exec_us then begin
    ctx.exec_us <- exec_us;
    ctx.dispatch_us <- exec_us +. Config.txn_dispatch_us
  end;
  ctx.txn_start <- Engine.now t.engine;
  ctx.read_only <- read_only;
  ctx.body <- body;
  ctx.k <- k;
  ctx.attempt <- 0;
  (* Untraced, every root is the null span the slot starts with. *)
  if Tspan.enabled t.tspans then
    ctx.root <-
      Tspan.start_span t.tspans ~cat:"txn" ~pid:t.id ~tid:thread
        ~args:[ ("kind", if read_only then "read" else "write") ]
        "txn";
  start_attempt ctx

let run_write t ~thread ~exec_us ~body k = run_txn ~read_only:false t ~thread ~exec_us ~body k
let run_read t ~thread ~exec_us ~body k = run_txn ~read_only:true t ~thread ~exec_us ~body k
