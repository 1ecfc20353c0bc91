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
  txn_free : Txn.t array;
      (* per app thread: one recycled transaction, reinitialized on reuse so
         the steady-state attempt allocates no copies table; [no_txn] while
         it is in use *)
  mutable app_handler : (src:Types.node_id -> Zeus_net.Msg.payload -> unit) option;
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
  match Table.find t.table key with Some obj -> Obj.busy obj | None -> false

(* A placeholder for a thread's pooled transaction while it is in use. *)
let no_txn = Txn.create_write (Table.create ~node:(-1)) ~thread:(-1)

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
      txn_free = Array.make config.Config.app_threads no_txn;
      app_handler = None;
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
          match Table.find t.table key with
          | Some obj -> Obj.is_owner obj && obj.Obj.o_state = Types.O_valid
          | None -> false)
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

(* ------ sharding control -------------------------------------------------- *)

let maybe_trim t key =
  if t.config.Config.auto_trim then
    match Table.find t.table key with
    | Some obj when Obj.is_owner obj -> (
      match obj.Obj.o_replicas with
      | Some r when Replicas.count r > t.config.Config.replication_degree -> (
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
        | [] -> ())
      | Some _ | None -> ())
    | Some _ | None -> ()

let acquire_ownership t key k =
  match Table.find t.table key with
  | Some obj when Obj.is_owner obj && obj.Obj.o_state = Types.O_valid -> k (Ok ())
  | Some _ | None ->
    ignore
      (Engine.schedule t.engine ~after:Config.ownership_dispatch_us (fun () ->
           Own.Agent.request (ownership_agent t) ~key ~kind:Own.Messages.Acquire
             ~k:(fun result ->
               if Result.is_ok result then maybe_trim t key;
               k result)))

let add_reader t key k =
  match Table.find t.table key with
  | Some _ -> k (Ok ())
  | None ->
    Own.Agent.request (ownership_agent t) ~key ~kind:Own.Messages.Add_reader ~k

let role t key =
  match Table.find t.table key with Some obj -> Some obj.Obj.role | None -> None

(* ------ transactions ------------------------------------------------------ *)

(* The per-attempt and per-transaction state below is plain records, and
   every step of an attempt is a top-level function of them: a local
   operation on an owned object allocates no closure, and the closures an
   attempt does build are the few events it schedules. *)

(* Per-attempt phase bounds (sim µs): the acquisition window, the body
   dispatch time and the commit entry, which cut the committing attempt
   into ownership / execute / local-commit / replicate phases.  A record of
   floats alone is stored flat, so setting a bound boxes nothing. *)
type times = {
  mutable body_start : float;
  mutable own_first : float;  (* nan: no ownership request this attempt *)
  mutable own_last : float;
  mutable commit_entry : float;
}

(* One transaction, across its attempts. *)
type run = {
  node : t;
  thread : int;
  read_only : bool;
  exec_us : float;
  body : ctx -> (unit -> unit) -> unit;
  k : Txn.outcome -> unit;
  root : Tspan.span;  (* root "txn" span, shared by all attempts *)
  txn_start : float;
  mutable attempt : int;  (* attempts before the current one *)
}

(* One attempt. *)
and ctx = {
  run : run;
  txn : Txn.t;
  times : times;
  mutable reads : (Types.key * int) list;  (* kept only for the history *)
  mutable used_ownership : bool;
  mutable state : [ `Running | `Failed of Txn.abort_reason | `Done ];
  mutable own_count : int;
}

let running ctx = match ctx.state with `Running -> true | `Failed _ | `Done -> false

let recording t = match t.history with Some _ -> true | None -> false

let note_read ctx key =
  let t = ctx.run.node in
  if recording t then
    match Table.find t.table key with
    | Some obj -> ctx.reads <- (key, obj.Obj.t_version) :: ctx.reads
    | None -> ()

(* ------ commit machinery -------------------------------------------------- *)

let release_pipeline_slot t thread =
  t.outstanding_rc.(thread) <- t.outstanding_rc.(thread) - 1;
  if not (Fifo.is_empty t.waiters.(thread)) then (Fifo.pop t.waiters.(thread)) ()

(* Created objects need their replica set assigned (and the directory told)
   before the reliable commit picks followers. *)
let rec prepare_created t = function
  | [] -> ()
  | (u : Txn.update) :: rest ->
    (match Table.find t.table u.key with
    | Some obj when Obj.is_owner obj && obj.Obj.o_replicas = None ->
      obj.Obj.o_replicas <- Some t.home_replicas;
      Own.Agent.register_object (ownership_agent t) u.key t.home_replicas
    | Some _ | None -> ());
    prepare_created t rest

let rec update_bytes acc = function
  | [] -> acc
  | (u : Txn.update) :: rest -> update_bytes (acc + Value.size u.data) rest

(* A write transaction's updates are durable: close its phases and free
   its pipeline slot. *)
let durable r ~lc_done (updates : Txn.update list) =
  let t = r.node in
  let durable = Engine.now t.engine in
  Metrics.Histogram.observe t.h_repl (durable -. lc_done);
  Metrics.Histogram.observe t.h_e2e (durable -. r.txn_start);
  if not (Tspan.is_null r.root) then
    Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:r.thread ~parent:r.root
      ~args:[ ("writes", string_of_int (List.length updates)) ]
      ~start:lc_done ~stop:durable "replicate";
  Tspan.finish_at t.tspans ~stop:durable ~args:[ ("result", "committed") ] r.root;
  (match t.history with
  | Some h ->
    let writes = List.map (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version)) updates in
    History.record_durable h ~writes ~time:(Engine.now t.engine)
  | None -> ());
  release_pipeline_slot t r.thread

let replicate r ~lc_done (updates : Txn.update list) =
  let t = r.node in
  let bytes = update_bytes 0 updates in
  let followers = t.config.Config.replication_degree - 1 in
  let send_cost =
    float_of_int followers
    *. (Config.msg_proc_us +. (float_of_int bytes *. Config.byte_proc_us))
  in
  t.outstanding_rc.(r.thread) <- t.outstanding_rc.(r.thread) + 1;
  (* Broadcasting the R-INVs consumes datastore-worker CPU at the
     coordinator; the app thread does NOT wait (§5.2). *)
  Resource.submit t.ds ~service:send_cost (fun () ->
      Com.Agent.commit ~parent:r.root (commit_agent t) ~thread:r.thread ~updates
        ~on_durable:(fun () -> durable r ~lc_done updates))

let backoff t attempt =
  let d = Config.backoff_base_us *. (2.0 ** float_of_int (min attempt 12)) in
  let d = Float.min d Config.backoff_max_us in
  d *. (0.5 +. Rng.float t.rng 1.0)

(* Retrospective phase spans for the committing attempt, plus the
   always-on phase histograms.  Ownership = [first acquisition issued, last
   grant]; zero-length at body dispatch for all-local attempts.  Execute =
   grant (or dispatch) to commit entry; the three phases are sequential and
   nested inside the root txn span. *)
let finish_phases ctx ~lc_done =
  let r = ctx.run in
  let t = r.node and tm = ctx.times in
  let ce = tm.commit_entry in
  let own_start, own_end =
    if Float.is_nan tm.own_first then (tm.body_start, tm.body_start)
    else (tm.own_first, tm.own_last)
  in
  Metrics.Histogram.observe t.h_own (own_end -. own_start);
  Metrics.Histogram.observe t.h_exec (ce -. own_end);
  Metrics.Histogram.observe t.h_lc (lc_done -. ce);
  if not (Tspan.is_null r.root) then begin
    let ph name start stop args =
      Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:r.thread ~parent:r.root ~args
        ~start ~stop name
    in
    ph "ownership" own_start own_end [ ("acquisitions", string_of_int ctx.own_count) ];
    ph "execute" own_end ce [];
    ph "local_commit" ce lc_done []
  end

let rec start_attempt r =
  let t = r.node in
  if not (is_alive t) then begin
    Tspan.finish t.tspans ~args:[ ("result", "node_dead") ] r.root;
    r.k (Txn.Aborted Txn.Node_dead)
  end
  else begin
    let txn =
      (* Per-thread pool: a thread runs one transaction at a time, so the
         previous attempt's (finished) record is free for reuse. *)
      let txn = t.txn_free.(r.thread) in
      if txn != no_txn then begin
        t.txn_free.(r.thread) <- no_txn;
        Txn.reinit txn ~read_only:r.read_only ~thread:r.thread;
        txn
      end
      else if r.read_only then Txn.create_read t.table ~thread:r.thread
      else Txn.create_write t.table ~thread:r.thread
    in
    let ctx =
      {
        run = r;
        txn;
        times = { body_start = nan; own_first = nan; own_last = nan; commit_entry = nan };
        reads = [];
        used_ownership = false;
        state = `Running;
        own_count = 0;
      }
    in
    ignore
      (Engine.schedule t.engine
         ~after:(r.exec_us +. Config.txn_dispatch_us)
         (fun () -> dispatch ctx))
  end

and dispatch ctx =
  ctx.times.body_start <- Engine.now ctx.run.node.engine;
  ctx.run.body ctx (fun () -> commit_entry ctx)

and commit_entry ctx =
  if running ctx then begin
    let t = ctx.run.node in
    ctx.times.commit_entry <- Engine.now t.engine;
    ignore (Engine.schedule t.engine ~after:Config.local_commit_us (fun () -> local_commit ctx))
  end

and local_commit ctx =
  let r = ctx.run in
  let t = r.node in
  match Txn.local_commit ctx.txn with
  | Error reason -> fail ctx reason
  | Ok [] ->
    ctx.state <- `Done;
    t.txn_free.(r.thread) <- ctx.txn;
    let lc_done = Engine.now t.engine in
    if r.read_only then begin
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
    finish_phases ctx ~lc_done;
    Metrics.Histogram.observe t.h_e2e (lc_done -. r.txn_start);
    (* Nothing written: durable at local commit. *)
    if not (Tspan.is_null r.root) then
      Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:r.thread ~parent:r.root
        ~args:[ ("writes", "0") ]
        ~start:lc_done ~stop:lc_done "replicate";
    Tspan.finish_at t.tspans ~stop:lc_done ~args:[ ("result", "committed") ] r.root;
    r.k Txn.Committed
  | Ok updates ->
    ctx.state <- `Done;
    t.txn_free.(r.thread) <- ctx.txn;
    t.n_committed <- t.n_committed + 1;
    if ctx.used_ownership then t.n_txn_with_ownership <- t.n_txn_with_ownership + 1;
    prepare_created t updates;
    let lc_done = Engine.now t.engine in
    finish_phases ctx ~lc_done;
    (match t.history with
    | Some h ->
      History.record_commit h ~node:t.id ~reads:ctx.reads
        ~writes:(List.map (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version)) updates)
        ~time:(Engine.now t.engine)
    | None -> ());
    if t.outstanding_rc.(r.thread) >= t.config.Config.pipeline_depth then
      (* Pipeline full: flow-control the thread. *)
      Fifo.push t.waiters.(r.thread) (fun () ->
          replicate r ~lc_done updates;
          r.k Txn.Committed)
    else begin
      replicate r ~lc_done updates;
      (* Pipelined: the app continues immediately. *)
      r.k Txn.Committed
    end

and fail ctx reason =
  if running ctx then begin
    ctx.state <- `Failed reason;
    Txn.abort ctx.txn;
    let r = ctx.run in
    let t = r.node in
    t.txn_free.(r.thread) <- ctx.txn;
    t.n_retries <- t.n_retries + 1;
    let n = r.attempt in
    if n >= Config.max_retries then begin
      if not r.read_only then t.n_aborted <- t.n_aborted + 1;
      Tspan.finish t.tspans
        ~args:[ ("result", "aborted"); ("attempts", string_of_int (n + 1)) ]
        r.root;
      r.k (Txn.Aborted reason)
    end
    else
      ignore
        (Engine.schedule t.engine ~after:(backoff t n) (fun () ->
             r.attempt <- n + 1;
             start_attempt r))
  end

(* ------ operations -------------------------------------------------------- *)

(* Where write-level ownership of [key] stands at this node.  [`Owned] lets
   the operation go on at once: the common local case allocates nothing. *)
let own_state ctx key =
  let t = ctx.run.node in
  note_local_access t ~key ~write:true;
  match Table.find t.table key with
  | Some obj when Obj.is_owner obj && obj.Obj.o_state = Types.O_valid -> `Owned
  | Some obj when obj.Obj.o_state <> Types.O_valid ->
    (* An arbitration for this object is pending at this node (we are an
       arbiter or a requester): do not touch it; retry with back-off until
       the ownership protocol settles (§4.1). *)
    `Pending
  | Some _ | None -> `Absent

(* Secure write-level ownership of [key] (§3.2 step 1), then run [k]: the
   app thread blocks on the request — the only blocking point in Zeus. *)
let acquire ctx key k =
  let t = ctx.run.node in
  ctx.used_ownership <- true;
  let acq_start = Engine.now t.engine in
  if Float.is_nan ctx.times.own_first then ctx.times.own_first <- acq_start;
  ignore
    (Engine.schedule t.engine ~after:Config.ownership_dispatch_us (fun () ->
         Own.Agent.request ~parent:ctx.run.root (ownership_agent t) ~key
           ~kind:Own.Messages.Acquire ~k:(fun result ->
             ctx.times.own_last <- Engine.now t.engine;
             ctx.own_count <- ctx.own_count + 1;
             if running ctx then
               match result with
               | Ok () ->
                 maybe_trim t key;
                 k ()
               | Error _ -> fail ctx (Txn.Ownership_refused key))))

let read_owned ctx key k =
  if recording ctx.run.node && not (Txn.written ctx.txn key) then note_read ctx key;
  match Txn.open_read ctx.txn key with
  | Ok v -> k v
  | Error reason -> fail ctx reason

let read ctx key k =
  if running ctx then
    if Txn.is_read_only ctx.txn then begin
      note_local_access ctx.run.node ~key ~write:false;
      note_read ctx key;
      match Txn.open_read ctx.txn key with
      | Ok v -> k v
      | Error reason -> fail ctx reason
    end
    else
      match own_state ctx key with
      | `Owned -> read_owned ctx key k
      | `Pending -> fail ctx (Txn.Ownership_refused key)
      | `Absent -> acquire ctx key (fun () -> read_owned ctx key k)

let write_owned ctx key value k =
  match Txn.open_write ctx.txn key with
  | Ok _ ->
    Txn.put ctx.txn key value;
    k ()
  | Error reason -> fail ctx reason

let write ctx key value k =
  if running ctx then
    match own_state ctx key with
    | `Owned -> write_owned ctx key value k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent -> acquire ctx key (fun () -> write_owned ctx key value k)

let read_write_owned ctx key f k =
  if recording ctx.run.node && not (Txn.written ctx.txn key) then note_read ctx key;
  match Txn.open_write ctx.txn key with
  | Ok v ->
    let v' = f v in
    Txn.put ctx.txn key v';
    k v'
  | Error reason -> fail ctx reason

let read_write ctx key f k =
  if running ctx then
    match own_state ctx key with
    | `Owned -> read_write_owned ctx key f k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent -> acquire ctx key (fun () -> read_write_owned ctx key f k)

let insert ctx key value = if running ctx then Txn.create_obj ctx.txn key value

let delete_owned ctx key k =
  match Txn.free_obj ctx.txn key with
  | Ok () -> k ()
  | Error reason -> fail ctx reason

let delete ctx key k =
  if running ctx then
    match own_state ctx key with
    | `Owned -> delete_owned ctx key k
    | `Pending -> fail ctx (Txn.Ownership_refused key)
    | `Absent -> acquire ctx key (fun () -> delete_owned ctx key k)

let run_txn ~read_only t ~thread ?(exec_us = 0.0) ~body k =
  let txn_start = Engine.now t.engine in
  let root =
    if Tspan.enabled t.tspans then
      Tspan.start_span t.tspans ~cat:"txn" ~pid:t.id ~tid:thread
        ~args:[ ("kind", if read_only then "read" else "write") ]
        "txn"
    else Tspan.null_span
  in
  start_attempt
    { node = t; thread; read_only; exec_us; body; k; root; txn_start; attempt = 0 }

let run_write t ~thread ?exec_us ~body k = run_txn ~read_only:false t ~thread ?exec_us ~body k
let run_read t ~thread ?exec_us ~body k = run_txn ~read_only:true t ~thread ?exec_us ~body k
