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
  txn_free : Txn.t option array;
      (* per app thread: one recycled transaction, reinitialized on reuse so
         the steady-state attempt allocates no copies table *)
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
  mutable n_ro_aborted : int;
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
let ro_aborted t = t.n_ro_aborted
let retries t = t.n_retries
let txns_with_ownership t = t.n_txn_with_ownership
let ownership_latency t = Own.Agent.latency_samples (ownership_agent t)
let is_alive t = Fabric.is_alive (Transport.fabric t.transport) t.id
let set_app_handler t fn = t.app_handler <- Some fn

let send_app t ~dst ?size payload = Transport.send t.transport ~src:t.id ~dst ?size payload

(* ------ CPU cost of one received protocol message ------------------------ *)

let payload_cost config payload =
  let c = config.Config.msg_proc_us in
  let bytes n = float_of_int n *. config.Config.byte_proc_us in
  match payload with
  | Com.Messages.R_inv { writes; _ } ->
    c +. bytes (List.fold_left (fun a (u : Txn.update) -> a + Value.size u.data) 0 writes)
  | Own.Messages.O_ack { data = Some d; _ } | Own.Messages.O_resp { data = Some d; _ } ->
    c +. bytes (Value.size d.Own.Messages.value)
  | _ -> c

(* ------ ownership callbacks ---------------------------------------------- *)

let obj_busy t key =
  match Table.find t.table key with
  | Some obj ->
    obj.Obj.lock_thread <> None
    || obj.Obj.pending_rc > 0
    || obj.Obj.t_state <> Types.T_valid
  | None -> false

let apply_arbiter t ~key ~kind ~o_ts ~replicas ~requester =
  ignore requester;
  match Table.find t.table key with
  | None -> ()
  | Some obj -> (
    obj.Obj.o_ts <- o_ts;
    match kind with
    | Own.Messages.Acquire ->
      if Obj.is_owner obj then begin
        (* Another node took over: demote to reader (§4); we keep the data
           and keep serving read-only transactions (§5.3). *)
        obj.Obj.role <- Types.Reader;
        obj.Obj.o_replicas <- None
      end
    | Own.Messages.Add_reader ->
      if Obj.is_owner obj then obj.Obj.o_replicas <- Some replicas
    | Own.Messages.Remove_reader r ->
      if r = t.id then Table.remove t.table key
      else if Obj.is_owner obj then obj.Obj.o_replicas <- Some replicas)

let apply_requester t ~key ~kind ~o_ts ~replicas ~data =
  match kind with
  | Own.Messages.Acquire | Own.Messages.Add_reader ->
    let role =
      match kind with Own.Messages.Acquire -> Types.Owner | _ -> Types.Reader
    in
    let obj =
      match Table.find t.table key with
      | Some obj ->
        (match data with
        | Some d when d.Own.Messages.t_version > obj.Obj.t_version ->
          obj.Obj.data <- d.Own.Messages.value;
          obj.Obj.t_version <- d.Own.Messages.t_version;
          obj.Obj.t_state <- Types.T_valid
        | Some _ | None -> ());
        obj
      | None ->
        let d = Option.get data in
        let obj =
          Obj.create ~key ~role ~version:d.Own.Messages.t_version ~o_ts
            d.Own.Messages.value
        in
        Table.install t.table obj;
        obj
    in
    obj.Obj.role <- role;
    obj.Obj.o_ts <- o_ts;
    obj.Obj.o_state <- Types.O_valid;
    obj.Obj.o_replicas <- (if role = Types.Owner then Some replicas else None)
  | Own.Messages.Remove_reader r -> (
    match Table.find t.table key with
    | Some obj ->
      obj.Obj.o_ts <- o_ts;
      if r = t.id then Table.remove t.table key
      else if Obj.is_owner obj then obj.Obj.o_replicas <- Some replicas
    | None -> ())

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
      ds = Resource.create engine ~servers:config.Config.ds_threads;
      rng = Engine.fork_rng engine;
      history;
      outstanding_rc = Array.make config.Config.app_threads 0;
      waiters = Array.init config.Config.app_threads (fun _ -> Fifo.create ~dummy:ignore);
      txn_free = Array.make config.Config.app_threads None;
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
      n_ro_aborted = 0;
      n_retries = 0;
      n_txn_with_ownership = 0;
    }
  in
  let own_cb =
    {
      Own.Agent.is_busy = (fun key -> obj_busy t key);
      apply_arbiter =
        (fun ~key ~kind ~o_ts ~replicas ~requester ->
          apply_arbiter t ~key ~kind ~o_ts ~replicas ~requester);
      apply_requester =
        (fun ~key ~kind ~o_ts ~replicas ~data ->
          apply_requester t ~key ~kind ~o_ts ~replicas ~data);
    }
  in
  let ownership =
    Own.Agent.create ?telemetry ~config:config.Config.ownership ~node:id
      ~dir_nodes_of:(fun key -> Config.dir_nodes_for config ~key)
      ~table:t.table ~membership ~callbacks:own_cb
      transport
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
  Transport.set_handler transport id (fun ~src payload ->
      (* Feed the failure detector first: any traffic from [src] is a
         liveness signal, and membership heartbeats are consumed here
         (they never reach the protocol agents). *)
      if not (Service.observe membership ~dst:id ~src payload) then
      (* Every received message costs datastore-worker CPU. *)
      Resource.submit t.ds ~service:(payload_cost config payload) (fun () ->
          if not (Own.Agent.handle ownership ~src payload) then
            if not (Com.Agent.handle commit ~src payload) then
              if
                not
                  (match t.locality with
                  | Some loc -> Loc.Engine.handle loc ~src payload
                  | None -> false)
              then match t.app_handler with Some fn -> fn ~src payload | None -> ()));
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
      (Engine.schedule t.engine ~after:t.config.Config.ownership_dispatch_us (fun () ->
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

type ctx = {
  node : t;
  txn : Txn.t;
  span : Tspan.span;  (* root "txn" span, shared by all attempts *)
  mutable reads : (Types.key * int) list;
  mutable used_ownership : bool;
  mutable state : [ `Running | `Failed of Txn.abort_reason | `Done ];
  on_fail : Txn.abort_reason -> unit;
  (* Per-attempt phase bounds (sim µs): the acquisition window and the
     body dispatch time, consumed by the commit path to cut the attempt
     into ownership / execute / local-commit / replicate phases. *)
  mutable body_start : float;
  mutable own_first : float;  (* nan: no ownership request this attempt *)
  mutable own_last : float;
  mutable own_count : int;
}

let guard ctx fn = match ctx.state with `Running -> fn () | `Failed _ | `Done -> ()

let fail ctx reason =
  match ctx.state with
  | `Running ->
    ctx.state <- `Failed reason;
    Txn.abort ctx.txn;
    ctx.on_fail reason
  | `Failed _ | `Done -> ()

let note_read ctx key =
  match Table.find ctx.node.table key with
  | Some obj -> ctx.reads <- (key, obj.Obj.t_version) :: ctx.reads
  | None -> ()

(* Secure write-level ownership before touching an object in a write
   transaction (§3.2 step 1); blocks the app thread if a request is
   needed — the only blocking point in Zeus. *)
let ensure_owner ctx key k =
  guard ctx (fun () ->
      let t = ctx.node in
      note_local_access t ~key ~write:true;
      match Table.find t.table key with
      | Some obj when Obj.is_owner obj && obj.Obj.o_state = Types.O_valid -> k ()
      | Some obj when obj.Obj.o_state <> Types.O_valid ->
        (* An arbitration for this object is pending at this node (we are
           an arbiter or a requester): do not touch it; retry with
           back-off until the ownership protocol settles (§4.1). *)
        fail ctx (Txn.Ownership_refused key)
      | Some _ | None ->
        ctx.used_ownership <- true;
        let acq_start = Engine.now t.engine in
        if Float.is_nan ctx.own_first then ctx.own_first <- acq_start;
        ignore
          (Engine.schedule t.engine ~after:t.config.Config.ownership_dispatch_us
             (fun () ->
               Own.Agent.request ~parent:ctx.span (ownership_agent t) ~key
                 ~kind:Own.Messages.Acquire
                 ~k:(fun result ->
                   ctx.own_last <- Engine.now t.engine;
                   ctx.own_count <- ctx.own_count + 1;
                   guard ctx (fun () ->
                       match result with
                       | Ok () ->
                         maybe_trim t key;
                         k ()
                       | Error _ -> fail ctx (Txn.Ownership_refused key))))))

let read ctx key k =
  guard ctx (fun () ->
      if Txn.is_read_only ctx.txn then begin
        note_local_access ctx.node ~key ~write:false;
        note_read ctx key;
        match Txn.open_read ctx.txn key with
        | Ok v -> k v
        | Error reason -> fail ctx reason
      end
      else
        ensure_owner ctx key (fun () ->
            if not (Txn.written ctx.txn key) then note_read ctx key;
            match Txn.open_read ctx.txn key with
            | Ok v -> k v
            | Error reason -> fail ctx reason))

let write ctx key value k =
  guard ctx (fun () ->
      ensure_owner ctx key (fun () ->
          match Txn.open_write ctx.txn key with
          | Ok _ ->
            Txn.put ctx.txn key value;
            k ()
          | Error reason -> fail ctx reason))

let read_write ctx key f k =
  guard ctx (fun () ->
      ensure_owner ctx key (fun () ->
          if not (Txn.written ctx.txn key) then note_read ctx key;
          match Txn.open_write ctx.txn key with
          | Ok v ->
            let v' = f v in
            Txn.put ctx.txn key v';
            k v'
          | Error reason -> fail ctx reason))

let insert ctx key value = guard ctx (fun () -> Txn.create_obj ctx.txn key value)

let delete ctx key k =
  guard ctx (fun () ->
      ensure_owner ctx key (fun () ->
          match Txn.free_obj ctx.txn key with
          | Ok () -> k ()
          | Error reason -> fail ctx reason))

(* ------ commit machinery -------------------------------------------------- *)

let release_pipeline_slot t thread =
  t.outstanding_rc.(thread) <- t.outstanding_rc.(thread) - 1;
  if not (Fifo.is_empty t.waiters.(thread)) then (Fifo.pop t.waiters.(thread)) ()

(* Created objects need their replica set assigned (and the directory told)
   before the reliable commit picks followers. *)
let prepare_created t (updates : Txn.update list) =
  List.iter
    (fun (u : Txn.update) ->
      match Table.find t.table u.key with
      | Some obj when Obj.is_owner obj && obj.Obj.o_replicas = None ->
        obj.Obj.o_replicas <- Some t.home_replicas;
        Own.Agent.register_object (ownership_agent t) u.key t.home_replicas
      | Some _ | None -> ())
    updates

let start_reliable_commit t ~thread ~parent ~lc_done ~txn_start
    ~(updates : Txn.update list) =
  let bytes = List.fold_left (fun a (u : Txn.update) -> a + Value.size u.data) 0 updates in
  let followers = t.config.Config.replication_degree - 1 in
  let send_cost =
    float_of_int followers
    *. (t.config.Config.msg_proc_us
       +. (float_of_int bytes *. t.config.Config.byte_proc_us))
  in
  t.outstanding_rc.(thread) <- t.outstanding_rc.(thread) + 1;
  (* Broadcasting the R-INVs consumes datastore-worker CPU at the
     coordinator; the app thread does NOT wait (§5.2). *)
  Resource.submit t.ds ~service:send_cost (fun () ->
      Com.Agent.commit ~parent (commit_agent t) ~thread ~updates
        ~on_durable:(fun () ->
          let durable = Engine.now t.engine in
          Metrics.Histogram.observe t.h_repl (durable -. lc_done);
          Metrics.Histogram.observe t.h_e2e (durable -. txn_start);
          if not (Tspan.is_null parent) then
            Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:thread ~parent
              ~args:[ ("writes", string_of_int (List.length updates)) ]
              ~start:lc_done ~stop:durable "replicate";
          Tspan.finish_at t.tspans ~stop:durable
            ~args:[ ("result", "committed") ]
            parent;
          (match t.history with
          | Some h ->
            let writes =
              List.map (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version)) updates
            in
            History.record_durable h ~writes ~time:(Engine.now t.engine)
          | None -> ());
          release_pipeline_slot t thread)
        ())

let backoff t attempt =
  let base = t.config.Config.backoff_base_us in
  let cap = t.config.Config.backoff_max_us in
  let d = base *. (2.0 ** float_of_int (min attempt 12)) in
  let d = Float.min d cap in
  d *. (0.5 +. Rng.float t.rng 1.0)

let run_txn ~read_only t ~thread ?(exec_us = 0.0) ~body k =
  let txn_start = Engine.now t.engine in
  let root =
    if Tspan.enabled t.tspans then
      Tspan.start_span t.tspans ~cat:"txn" ~pid:t.id ~tid:thread
        ~args:[ ("kind", if read_only then "read" else "write") ]
        "txn"
    else Tspan.null_span
  in
  (* Retrospective phase spans for the committing attempt, plus the
     always-on phase histograms.  Ownership = [first acquisition issued,
     last grant]; zero-length at body dispatch for all-local attempts.
     Execute = grant (or dispatch) to commit entry; the three phases are
     sequential and nested inside the root txn span. *)
  let finish_phases ctx ~ce ~lc_done =
    let own_start, own_end =
      if Float.is_nan ctx.own_first then (ctx.body_start, ctx.body_start)
      else (ctx.own_first, ctx.own_last)
    in
    Metrics.Histogram.observe t.h_own (own_end -. own_start);
    Metrics.Histogram.observe t.h_exec (ce -. own_end);
    Metrics.Histogram.observe t.h_lc (lc_done -. ce);
    if not (Tspan.is_null root) then begin
      let ph name start stop args =
        Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:thread ~parent:root
          ~args ~start ~stop name
      in
      ph "ownership" own_start own_end
        [ ("acquisitions", string_of_int ctx.own_count) ];
      ph "execute" own_end ce [];
      ph "local_commit" ce lc_done []
    end
  in
  let rec attempt n =
    if not (is_alive t) then begin
      Tspan.finish t.tspans ~args:[ ("result", "node_dead") ] root;
      k (Txn.Aborted Txn.Node_dead)
    end
    else begin
      let txn =
        (* Per-thread pool: a thread runs one transaction at a time, so the
           previous attempt's (finished) record is free for reuse. *)
        match t.txn_free.(thread) with
        | Some txn ->
          t.txn_free.(thread) <- None;
          Txn.reinit txn ~read_only ~thread;
          txn
        | None ->
          if read_only then Txn.create_read t.table ~thread
          else Txn.create_write t.table ~thread
      in
      let on_fail reason =
        t.txn_free.(thread) <- Some txn;
        t.n_retries <- t.n_retries + 1;
        if n >= t.config.Config.max_retries then begin
          if read_only then t.n_ro_aborted <- t.n_ro_aborted + 1
          else t.n_aborted <- t.n_aborted + 1;
          Tspan.finish t.tspans
            ~args:[ ("result", "aborted"); ("attempts", string_of_int (n + 1)) ]
            root;
          k (Txn.Aborted reason)
        end
        else
          ignore
            (Engine.schedule t.engine ~after:(backoff t n) (fun () -> attempt (n + 1)))
      in
      let ctx =
        {
          node = t;
          txn;
          span = root;
          reads = [];
          used_ownership = false;
          state = `Running;
          on_fail;
          body_start = nan;
          own_first = nan;
          own_last = nan;
          own_count = 0;
        }
      in
      let commit_now () =
        guard ctx (fun () ->
            let ce = Engine.now t.engine in
            ignore
              (Engine.schedule t.engine ~after:t.config.Config.local_commit_us
                 (fun () ->
                   match Txn.local_commit ctx.txn with
                   | Error reason -> fail ctx reason
                   | Ok [] ->
                     ctx.state <- `Done;
                     t.txn_free.(thread) <- Some ctx.txn;
                     let lc_done = Engine.now t.engine in
                     if read_only then begin
                       t.n_ro_committed <- t.n_ro_committed + 1;
                       (match t.history with
                       | Some h when ctx.reads <> [] ->
                         History.record_ro h ~node:t.id ~reads:ctx.reads
                           ~time:(Engine.now t.engine)
                       | Some _ | None -> ())
                     end
                     else begin
                       t.n_committed <- t.n_committed + 1;
                       if ctx.used_ownership then
                         t.n_txn_with_ownership <- t.n_txn_with_ownership + 1
                     end;
                     finish_phases ctx ~ce ~lc_done;
                     Metrics.Histogram.observe t.h_e2e (lc_done -. txn_start);
                     (* Nothing written: durable at local commit. *)
                     if not (Tspan.is_null root) then
                       Tspan.complete t.tspans ~cat:"txn" ~pid:t.id ~tid:thread
                         ~parent:root
                         ~args:[ ("writes", "0") ]
                         ~start:lc_done ~stop:lc_done "replicate";
                     Tspan.finish_at t.tspans ~stop:lc_done
                       ~args:[ ("result", "committed") ]
                       root;
                     k Txn.Committed
                   | Ok updates ->
                     ctx.state <- `Done;
                     t.txn_free.(thread) <- Some ctx.txn;
                     t.n_committed <- t.n_committed + 1;
                     if ctx.used_ownership then
                       t.n_txn_with_ownership <- t.n_txn_with_ownership + 1;
                     prepare_created t updates;
                     let lc_done = Engine.now t.engine in
                     finish_phases ctx ~ce ~lc_done;
                     (match t.history with
                     | Some h ->
                       History.record_commit h ~node:t.id ~reads:ctx.reads
                         ~writes:
                           (List.map
                              (fun (u : Txn.update) -> (u.Txn.key, u.Txn.version))
                              updates)
                         ~time:(Engine.now t.engine)
                     | None -> ());
                     let proceed () =
                       start_reliable_commit t ~thread ~parent:root ~lc_done
                         ~txn_start ~updates
                     in
                     if t.outstanding_rc.(thread) >= t.config.Config.pipeline_depth
                     then begin
                       (* Pipeline full: flow-control the thread. *)
                       Fifo.push t.waiters.(thread) (fun () ->
                           proceed ();
                           k Txn.Committed)
                     end
                     else begin
                       proceed ();
                       (* Pipelined: the app continues immediately. *)
                       k Txn.Committed
                     end)))
      in
      ignore
        (Engine.schedule t.engine
           ~after:(exec_us +. t.config.Config.txn_dispatch_us)
           (fun () ->
             ctx.body_start <- Engine.now t.engine;
             body ctx commit_now))
    end
  in
  attempt 0

let run_write t ~thread ?exec_us ~body k = run_txn ~read_only:false t ~thread ?exec_us ~body k
let run_read t ~thread ?exec_us ~body k = run_txn ~read_only:true t ~thread ?exec_us ~body k
