module Engine = Zeus_sim.Engine
module Rng = Zeus_sim.Rng
module Metrics = Zeus_telemetry.Metrics
module Trace = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport

type mode = Oracle | Detected

let lease_us = 2_000.0
let detect_us = 1_000.0
let skew_us = 5.0
let rejoin_backoff_us = 1_500.0

type det_stats = {
  heartbeats : int;
  suspicions : int;
  retractions : int;
  false_suspicions : int;
  fences : int;
  evictions_averted : int;
  views_installed : int;
}

type counters = {
  c_heartbeats : Metrics.Counter.h;
  c_suspicions : Metrics.Counter.h;
  c_retractions : Metrics.Counter.h;
  c_false : Metrics.Counter.h;
  c_fences : Metrics.Counter.h;
  c_averted : Metrics.Counter.h;
  c_views : Metrics.Counter.h;
}

type t = {
  transport : Transport.t;
  rng : Rng.t;
  mode : mode;
  detection : Detector.config;
  mutable view : View.t;
  node_views : View.t array;
  subscribers : (View.t -> unit) list array;  (* reversed: newest first *)
  (* --- Detected-mode state (empty arrays in Oracle mode) --- *)
  detectors : Detector.t array;
  suspected_by : bool array array;  (* suspected_by.(suspect).(reporter) *)
  evicting : bool array;            (* lease clock running for this suspect *)
  tick_events : Engine.event_id array;  (* [Engine.no_event] when unarmed *)
  tick_fns : (unit -> unit) array;  (* [tick t n], built once per node *)
  mutable suspended : bool;
  mutable fence_hook : (int -> unit) option;
  counters : counters;
  trace : Trace.t;
}

let fabric t = Transport.fabric t.transport
let engine t = Fabric.engine (fabric t)

let mode t = t.mode
let view t = t.view
let node_view t n = t.node_views.(n)
let epoch_at t n = t.node_views.(n).View.epoch
let is_live t n = View.is_live t.view n

let stable t =
  (* Every node the service believes live holds the current epoch: no view
     install is in flight (skew window) and no kill/rejoin is pending. *)
  let ok = ref true in
  Array.iteri
    (fun n v ->
      if View.is_live t.view n && v.View.epoch <> t.view.View.epoch then ok := false)
    t.node_views;
  !ok

let subscribe t n fn = t.subscribers.(n) <- fn :: t.subscribers.(n)

let instant t name =
  if Trace.enabled t.trace then begin
    let now = Engine.now (engine t) in
    Trace.complete t.trace ~cat:"membership" ~pid:0 ~start:now ~stop:now name
  end

let install t next =
  t.view <- next;
  Metrics.Counter.incr t.counters.c_views;
  instant t (Printf.sprintf "view(%d)" next.View.epoch);
  Array.iteri
    (fun node _ ->
      if View.is_live next node then begin
        let skew = Rng.float t.rng skew_us in
        ignore
          (Engine.schedule (engine t) ~after:skew (fun () ->
               (* A node may have crashed between scheduling and delivery. *)
               if
                 Fabric.is_alive (fabric t) node
                 && next.View.epoch > t.node_views.(node).View.epoch
               then begin
                 t.node_views.(node) <- next;
                 (* Subscribers are stored reversed (newest first) so that
                    [subscribe] is O(1); normalize to subscription order
                    once per install. *)
                 List.iter (fun fn -> fn next) (List.rev t.subscribers.(node))
               end))
      end)
    t.node_views

(* ---------- suspicion aggregation (Detected mode) ------------------------ *)

(* Quorum: a majority of the current view's live nodes other than the
   suspect itself.  Recomputed against the view both when the quorum forms
   and at lease expiry, so evictions and rejoins compose. *)
let quorum_held t suspect =
  View.is_live t.view suspect
  &&
  let others = List.filter (fun n -> n <> suspect) (View.live_list t.view) in
  let need = (List.length others / 2) + 1 in
  let have = List.length (List.filter (fun r -> t.suspected_by.(suspect).(r)) others) in
  need > 0 && have >= need

let clear_suspicions_of t node =
  Array.iteri (fun r _ -> t.suspected_by.(node).(r) <- false) t.suspected_by.(node)

let do_rejoin t node =
  Transport.recover t.transport node;
  if t.mode = Detected then begin
    let now = Engine.now (engine t) in
    (* Fresh incarnation: its old suspicions (as reporter) and the
       suspicions of it (as suspect) are void, and every detector grants
       it a new grace window. *)
    clear_suspicions_of t node;
    Array.iter (fun row -> row.(node) <- false) t.suspected_by;
    Array.iteri
      (fun i d ->
        if i = node then Detector.reset_all d ~now else Detector.reset_peer d ~peer:node ~now)
      t.detectors;
    (* Re-registration of a node the view still calls live: the old
       incarnation crashed and returned inside the detection window, so no
       peer ever suspected it — but its session is dead all the same (a new
       registration proves it).  Evict the old incarnation first, or the
       peers would never learn that its state is gone and recovery for its
       replicas would never run.  (Oracle mode needs no such fence: [kill]
       already scheduled the eviction by fiat.) *)
    if View.is_live t.view node then install t (View.without t.view node)
  end;
  ignore
    (Engine.schedule (engine t) ~after:detect_us (fun () ->
         if not (View.is_live t.view node) then install t (View.with_node t.view node)))

let lease_expired t suspect =
  t.evicting.(suspect) <- false;
  if quorum_held t suspect then begin
    let was_alive = Fabric.is_alive (fabric t) suspect in
    if was_alive then begin
      (* False suspicion: the suspect is alive but its lease is gone.  It
         is fenced out — force-crashed at the fabric level, which is how
         it observes its own eviction — and must rejoin as a fresh
         incarnation. *)
      Metrics.Counter.incr t.counters.c_false;
      Metrics.Counter.incr t.counters.c_fences;
      instant t (Printf.sprintf "fence(%d)" suspect);
      Transport.crash t.transport suspect
    end;
    install t (View.without t.view suspect);
    clear_suspicions_of t suspect;
    if was_alive then begin
      match t.fence_hook with
      | Some hook -> hook suspect
      | None ->
        ignore
          (Engine.schedule (engine t) ~after:rejoin_backoff_us (fun () ->
               if not (Fabric.is_alive (fabric t) suspect) then do_rejoin t suspect))
    end
  end
  else if View.is_live t.view suspect then begin
    (* Traffic resumed and the quorum collapsed before the lease ran out:
       the false suspicion cost nothing. *)
    Metrics.Counter.incr t.counters.c_averted;
    instant t (Printf.sprintf "averted(%d)" suspect)
  end

let maybe_evict t suspect =
  if (not t.evicting.(suspect)) && quorum_held t suspect then begin
    t.evicting.(suspect) <- true;
    instant t (Printf.sprintf "lease_wait(%d)" suspect);
    ignore (Engine.schedule (engine t) ~after:lease_us (fun () -> lease_expired t suspect))
  end

let report t ~reporter ~suspect =
  t.suspected_by.(suspect).(reporter) <- true;
  Metrics.Counter.incr t.counters.c_suspicions;
  instant t (Printf.sprintf "suspect(%d->%d)" reporter suspect)

let retract t ~reporter ~suspect =
  t.suspected_by.(suspect).(reporter) <- false;
  Metrics.Counter.incr t.counters.c_retractions;
  instant t (Printf.sprintf "retract(%d->%d)" reporter suspect)

(* ---------- heartbeat / suspicion tick (Detected mode) -------------------- *)

let arm_tick t n ~after =
  t.tick_events.(n) <- Engine.schedule (engine t) ~after t.tick_fns.(n)

let tick t n =
  t.tick_events.(n) <- Engine.no_event;
  if not t.suspended then begin
    let d = t.detection in
    if Fabric.is_alive (fabric t) n then begin
      let myview = t.node_views.(n) in
      let now = Engine.now (engine t) in
      List.iter
        (fun peer ->
          if peer <> n then begin
            (* Unreliable on purpose: a lost heartbeat IS the signal, and
               the next period resends; retransmitting into a dead node
               would only mask the silence.  Batched protocol flows carry
               the same signal implicitly via [observe]. *)
            Transport.send_unreliable t.transport ~src:n ~dst:peer ~size:16
              (Detector.Heartbeat { epoch = myview.View.epoch });
            Metrics.Counter.incr t.counters.c_heartbeats
          end)
        (View.live_list myview);
      List.iter
        (fun peer ->
          (* Judge only peers the service still calls live: during the
             install-skew window this node's own view may lag and re-raise
             a suspicion of a node already evicted — it could never form a
             quorum ([quorum_held] checks the service view) but would stand
             unretracted and pollute the counters. *)
          if peer <> n && View.is_live t.view peer then begin
            let sus = Detector.suspects t.detectors.(n) ~peer ~now in
            if sus && not t.suspected_by.(peer).(n) then report t ~reporter:n ~suspect:peer
            else if (not sus) && t.suspected_by.(peer).(n) then
              retract t ~reporter:n ~suspect:peer;
            (* Re-check standing suspicions every period so an eviction
               deferred by a transiently broken quorum is retried. *)
            if sus then maybe_evict t peer
          end)
        (View.live_list myview)
    end;
    arm_tick t n ~after:d.period_us
  end

(* ---------- public surface ------------------------------------------------ *)

let observe t ~dst ~src payload =
  match t.mode with
  | Oracle -> (match payload with Detector.Heartbeat _ -> true | _ -> false)
  | Detected ->
    if Fabric.is_alive (fabric t) dst then
      Detector.note_arrival t.detectors.(dst) ~src ~now:(Engine.now (engine t));
    (match payload with Detector.Heartbeat _ -> true | _ -> false)

let suspected t ~by node = t.mode = Detected && t.suspected_by.(node).(by)

let det_stats t =
  {
    heartbeats = Metrics.Counter.get t.counters.c_heartbeats;
    suspicions = Metrics.Counter.get t.counters.c_suspicions;
    retractions = Metrics.Counter.get t.counters.c_retractions;
    false_suspicions = Metrics.Counter.get t.counters.c_false;
    fences = Metrics.Counter.get t.counters.c_fences;
    evictions_averted = Metrics.Counter.get t.counters.c_averted;
    views_installed = Metrics.Counter.get t.counters.c_views;
  }

let detection_bound_us t =
  let d = t.detection in
  (* One period of arrival slack (the last heartbeat may land just after
     the crash instant), the timeout cap, one period of suspicion-check
     granularity, the lease, and the install skew. *)
  (2.0 *. d.Detector.period_us) +. d.Detector.max_timeout_us +. lease_us +. skew_us

let set_fence_hook t hook = t.fence_hook <- Some hook

let suspend t =
  if t.mode = Detected && not t.suspended then begin
    t.suspended <- true;
    Array.iteri
      (fun i ev ->
        Engine.cancel (engine t) ev;
        t.tick_events.(i) <- Engine.no_event)
      t.tick_events
  end

let stagger d n = d.Detector.period_us *. (0.25 +. (0.5 *. float_of_int (n + 1)))

let resume t =
  if t.mode = Detected && t.suspended then begin
    t.suspended <- false;
    Array.iteri (fun n _ -> arm_tick t n ~after:(stagger t.detection n))
      t.tick_events
  end

let kill t node =
  Transport.crash t.transport node;
  match t.mode with
  | Detected ->
    (* No oracle: the view changes iff the peers detect the silence. *)
    ()
  | Oracle ->
    ignore
      (Engine.schedule (engine t) ~after:(detect_us +. lease_us) (fun () ->
           (* Derive from the view current at expiry so concurrent kills and
              rejoins compose into a single monotone epoch sequence. *)
           if View.is_live t.view node then install t (View.without t.view node)))

let rejoin t node = do_rejoin t node

let create ?(mode = Oracle) ?(detection = Detector.default_config) ?telemetry transport =
  let fabric = Transport.fabric transport in
  let nodes = Fabric.nodes fabric in
  let view = View.initial ~nodes in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let m = Hub.metrics hub in
  let detected = mode = Detected in
  let now = Engine.now (Fabric.engine fabric) in
  let t =
    {
      transport;
      rng = Engine.fork_rng (Fabric.engine fabric);
      mode;
      detection;
      view;
      node_views = Array.make nodes view;
      subscribers = Array.make nodes [];
      detectors =
        (if detected then
           Array.init nodes (fun n -> Detector.create detection ~node:n ~nodes ~now)
         else [||]);
      suspected_by =
        (if detected then Array.init nodes (fun _ -> Array.make nodes false) else [||]);
      evicting = (if detected then Array.make nodes false else [||]);
      tick_events = (if detected then Array.make nodes Engine.no_event else [||]);
      tick_fns = (if detected then Array.make nodes ignore else [||]);
      suspended = false;
      fence_hook = None;
      counters =
        {
          c_heartbeats = Metrics.Counter.v m "membership.heartbeats_sent";
          c_suspicions = Metrics.Counter.v m "membership.suspicions";
          c_retractions = Metrics.Counter.v m "membership.retractions";
          c_false = Metrics.Counter.v m "membership.false_suspicions";
          c_fences = Metrics.Counter.v m "membership.fences";
          c_averted = Metrics.Counter.v m "membership.evictions_averted";
          c_views = Metrics.Counter.v m "membership.views_installed";
        };
      trace = Hub.trace hub;
    }
  in
  if detected then begin
    for n = 0 to nodes - 1 do
      t.tick_fns.(n) <- (fun () -> tick t n);
      (* Standalone default: consume heartbeats and feed the detector.
         Zeus_core.Node replaces this handler with the full protocol
         dispatch chain, which calls [observe] first. *)
      Transport.set_handler transport n (fun ~src payload ->
          ignore (observe t ~dst:n ~src payload));
      arm_tick t n ~after:(stagger detection n)
    done
  end;
  t
