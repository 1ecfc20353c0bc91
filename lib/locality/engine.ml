module Sim = Zeus_sim.Engine
module Metrics = Zeus_telemetry.Metrics
module Tspan = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Transport = Zeus_net.Transport
module Own = Zeus_ownership
open Zeus_store

type hint_kind = Hint_own | Hint_read

type Zeus_net.Msg.payload +=
  | L_hint of { key : Types.key; kind : hint_kind; from_ : Types.node_id }

type config = { enabled : bool; planner : Planner.config; migrator : Migrator.config }

let default_config =
  { enabled = false; planner = Planner.default_config; migrator = Migrator.default_config }

let enabled_default = { default_config with enabled = true }

(* Local silence on an owned key before the planner is consulted. *)
let idle_gap_us = 60.0

type t = {
  node : Types.node_id;
  engine : Sim.t;
  transport : Transport.t;
  is_owner : Types.key -> bool;
  log : Access_log.t;
  predictor : Predictor.t;
  planner : Planner.t;
  migrator : Migrator.t;
  (* Typed metric handles over a per-engine registry. *)
  metrics : Metrics.t;
  tspans : Tspan.t;
  c_prefetch_hits : Metrics.Counter.h;
  c_prefetch_misses : Metrics.Counter.h;
  c_hints_sent : Metrics.Counter.h;
  c_replicate_hints : Metrics.Counter.h;
  c_hints_received : Metrics.Counter.h;
  c_replicate_hints_received : Metrics.Counter.h;
  c_migrations_observed : Metrics.Counter.h;
  c_plans : Metrics.Counter.h;
  c_pins_applied : Metrics.Counter.h;
  last_access : (Types.key, float) Hashtbl.t;   (* local accesses on owned keys *)
  idle_armed : (Types.key, unit) Hashtbl.t;     (* an idle check is scheduled *)
  hinted : (Types.key, unit) Hashtbl.t;         (* hinted this ownership tenure *)
  prefetched : (Types.key, unit) Hashtbl.t;     (* won by prefetch, unused yet *)
  reacted_pins : (Types.key, float) Hashtbl.t;  (* pin deadlines already acted on *)
  mutable on_pin : (key:Types.key -> target:Types.node_id -> unit) option;
}

let create ?telemetry ~(config : config) ~node ~nodes ~engine ~transport ~agent ~is_owner () =
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let metrics = Metrics.create () in
  {
    node;
    engine;
    transport;
    is_owner;
    log = Access_log.create ~nodes;
    predictor = Predictor.create ~nodes;
    planner = Planner.create ~config:config.planner ();
    migrator = Migrator.create ~config:config.migrator ~agent ~engine ();
    metrics;
    tspans = Hub.trace hub;
    c_prefetch_hits = Metrics.Counter.v metrics "locality.prefetch_hits";
    c_prefetch_misses = Metrics.Counter.v metrics "locality.prefetch_misses";
    c_hints_sent = Metrics.Counter.v metrics "locality.hints_sent";
    c_replicate_hints = Metrics.Counter.v metrics "locality.replicate_hints";
    c_hints_received = Metrics.Counter.v metrics "locality.hints_received";
    c_replicate_hints_received =
      Metrics.Counter.v metrics "locality.replicate_hints_received";
    c_migrations_observed = Metrics.Counter.v metrics "locality.migrations_observed";
    c_plans = Metrics.Counter.v metrics "locality.plans";
    c_pins_applied = Metrics.Counter.v metrics "locality.pins_applied";
    last_access = Hashtbl.create 256;
    idle_armed = Hashtbl.create 64;
    hinted = Hashtbl.create 64;
    prefetched = Hashtbl.create 32;
    reacted_pins = Hashtbl.create 16;
    on_pin = None;
  }

let access_log t = t.log
let predictor t = t.predictor
let planner t = t.planner
let migrator t = t.migrator
let metrics t = t.metrics
let counters t = Metrics.counters t.metrics

let prefetch_hits t = Metrics.Counter.get t.c_prefetch_hits
let prefetch_misses t = Metrics.Counter.get t.c_prefetch_misses
let hints_sent t = Metrics.Counter.get t.c_hints_sent
let migrations_observed t = Metrics.Counter.get t.c_migrations_observed

let set_on_pin t f = t.on_pin <- Some f

let route_for_key t key = Planner.pinned t.planner ~key ~now:(Sim.now t.engine)

let send_hint t ~dst ~key ~kind =
  Metrics.Counter.incr
    (match kind with Hint_own -> t.c_hints_sent | Hint_read -> t.c_replicate_hints);
  Transport.send t.transport ~src:t.node ~dst ~size:24
    (L_hint { key; kind; from_ = t.node })

(* ---------- planning: consult the planner once a held key goes idle ------ *)

let plan_key t key =
  if t.is_owner key && not (Hashtbl.mem t.hinted key) then begin
    let now = Sim.now t.engine in
    Metrics.Counter.incr t.c_plans;
    match
      Planner.decide t.planner ~predictor:t.predictor ~log:t.log ~key ~holder:t.node ~now
    with
    | Planner.Stay | Planner.Pin _ -> ()
      (* a pin is acted on where the key lands (note_owner_change); while
         pinned here, routing keeps the traffic here — nothing to execute *)
    | Planner.Prefetch { target; _ } when target <> t.node ->
      Hashtbl.replace t.hinted key ();
      send_hint t ~dst:target ~key ~kind:Hint_own
    | Planner.Prefetch _ -> ()
    | Planner.Replicate target when target <> t.node ->
      Hashtbl.replace t.hinted key ();
      send_hint t ~dst:target ~key ~kind:Hint_read
    | Planner.Replicate _ -> ()
  end

(* A check that lands within [slop] of the idle deadline counts as idle:
   re-arming by the exact float remainder can round to a zero delay and
   refire at the same instant forever. *)
let idle_slop_us = 0.5

let rec arm_idle_check t key ~after =
  if not (Hashtbl.mem t.idle_armed key) then begin
    Hashtbl.replace t.idle_armed key ();
    ignore
      (Sim.schedule t.engine ~after (fun () ->
           Hashtbl.remove t.idle_armed key;
           match Hashtbl.find_opt t.last_access key with
           | None -> ()
           | Some last ->
             let remaining = idle_gap_us -. (Sim.now t.engine -. last) in
             if remaining <= idle_slop_us then plan_key t key
             else arm_idle_check t key ~after:remaining))
  end

(* ---------- event feeds --------------------------------------------------- *)

let note_local_access t ~key ~write =
  let now = Sim.now t.engine in
  Access_log.record t.log ~key ~node:t.node ~now;
  if Hashtbl.mem t.prefetched key then begin
    Hashtbl.remove t.prefetched key;
    Metrics.Counter.incr t.c_prefetch_hits
  end;
  if write then begin
    Hashtbl.replace t.last_access key now;
    arm_idle_check t key ~after:idle_gap_us
  end

let note_request t ~key ~kind ~requester =
  let now = Sim.now t.engine in
  Access_log.record t.log ~key ~node:requester ~now;
  match kind with
  | Own.Messages.Add_reader -> Planner.note_read_interest t.planner ~key ~node:requester
  | Own.Messages.Acquire | Own.Messages.Remove_reader _ -> ()

let note_owner_change t ~key ~owner =
  let now = Sim.now t.engine in
  Metrics.Counter.incr t.c_migrations_observed;
  Predictor.note_owner t.predictor ~key ~owner;
  Planner.note_migration t.planner ~key ~owner ~now;
  if owner <> t.node then begin
    Hashtbl.remove t.hinted key;
    Hashtbl.remove t.last_access key;
    if Hashtbl.mem t.prefetched key then begin
      Hashtbl.remove t.prefetched key;
      Metrics.Counter.incr t.c_prefetch_misses
    end
  end
  else Hashtbl.remove t.hinted key;
  (* A fresh pin whose target is this node re-routes at the source. *)
  match Planner.pinned t.planner ~key ~now with
  | Some target when target = t.node -> (
    let deadline_known =
      match Hashtbl.find_opt t.reacted_pins key with
      | Some d -> now < d
      | None -> false
    in
    if not deadline_known then begin
      Hashtbl.replace t.reacted_pins key (now +. Planner.pin_us);
      Metrics.Counter.incr t.c_pins_applied;
      match t.on_pin with Some f -> f ~key ~target | None -> ()
    end)
  | Some _ | None -> ()

(* ---------- hint handling ------------------------------------------------- *)

let handle t ~src:_ = function
  | L_hint { key; kind; from_ } ->
    (match kind with
    | Hint_own ->
      Metrics.Counter.incr t.c_hints_received;
      let pinned_elsewhere =
        match route_for_key t key with Some n -> n <> t.node | None -> false
      in
      if (not pinned_elsewhere) && not (t.is_owner key) then begin
        (* Span per prefetch, linked back to the hinting node (whose plan —
           triggered by its transactions on the key — sent us here). *)
        let sp =
          Tspan.start_span t.tspans ~cat:"locality" ~pid:t.node
            ~args:
              [ ("key", string_of_int key); ("hinted_by", string_of_int from_) ]
            "prefetch"
        in
        let issued =
          Migrator.prefetch ~parent:sp t.migrator ~key ~k:(fun result ->
              (match result with
              | Ok () ->
                Hashtbl.replace t.prefetched key ();
                Tspan.finish t.tspans ~args:[ ("result", "won") ] sp
              | Error _ -> Tspan.finish t.tspans ~args:[ ("result", "refused") ] sp))
        in
        if not issued then
          Tspan.finish t.tspans ~args:[ ("result", "rate_limited") ] sp
      end
    | Hint_read ->
      Metrics.Counter.incr t.c_replicate_hints_received;
      if not (t.is_owner key) then
        ignore (Migrator.add_reader t.migrator ~key ~k:(fun _ -> ())));
    true
  | _ -> false
