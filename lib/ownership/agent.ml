(* Simulator interpreter for the sans-I/O ownership core ({!Core}).

   Everything protocol lives in [Core]; this module only (a) samples the
   runtime facts an input needs (time, epoch, view, store lookups), and
   (b) executes its effects, in order, against the simulator:
   transport sends, engine timers, store updates, telemetry, and the
   caller's continuation.  Closures never enter the core — continuations
   are keyed by request seq, timers and spans by core-allocated tokens.
   Seqs and tokens only grow, so continuations and armed timers sit in
   {!Zeus_store.Window}s, whose absent cells are constant sentinels.

   The unblock / timer / span maps deliberately survive {!reset}: the
   pre-split agent's closures outlived a fresh-incarnation reset (stale
   timeout timers still unblocked their pre-crash callers), and the core's
   zombie-timeout path reproduces that — see [Core.T_timeout]. *)

module Engine = Zeus_sim.Engine
module Stats = Zeus_sim.Stats
module Metrics = Zeus_telemetry.Metrics
module Tspan = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Transport = Zeus_net.Transport
module Service = Zeus_membership.Service
module View = Zeus_membership.View
open Zeus_store
open Messages

type config = Core.config = {
  request_timeout_us : float;
  replay_after_us : float;
}

type observer = {
  on_request :
    key:Types.key -> kind:Messages.kind -> requester:Types.node_id -> unit;
  on_owner_change : key:Types.key -> owner:Types.node_id -> unit;
}

let default_config = Core.default_config

(* The absent continuation of [unblocks], compared with [==]. *)
let no_unblock : (unit, nack_reason) result -> unit = fun _ -> ()

type t = {
  core : Core.state;
  node : Types.node_id;
  dir_nodes_of : Types.key -> Types.node_id list;
  table : Table.t;
  membership : Service.t;
  transport : Transport.t;
  engine : Engine.t;
  unblocks : ((unit, nack_reason) result -> unit) Window.t;  (* by request seq *)
  timers : Engine.event_id Window.t;  (* by timer token *)
  spans : (int, Tspan.span) Hashtbl.t;
  mutable span_parent : Tspan.span;
      (* parent for the span the in-flight [Api_request] starts *)
  latency : Stats.Samples.t;
  metrics : Metrics.t;
  tspans : Tspan.t;
  c_started : Metrics.Counter.h;
  c_won : Metrics.Counter.h;
  c_nacked : Metrics.Counter.h;
  c_timeout : Metrics.Counter.h;
  c_replays : Metrics.Counter.h;
  c_driven : Metrics.Counter.h;
  h_arb_us : Metrics.Histogram.h;
  mutable observer : observer option;
  mutable io_tap : (Core.input -> Core.eff list -> unit) option;
}

let node t = t.node
let directory t = Core.directory t.core
let set_observer t obs = t.observer <- Some obs
let set_io_tap t tap = t.io_tap <- Some tap
let core_fingerprint t = Core.fingerprint t.core
let latency_samples t = t.latency
let requests_started t = Metrics.Counter.get t.c_started
let requests_won t = Metrics.Counter.get t.c_won
let requests_nacked t = Metrics.Counter.get t.c_nacked
let requests_timed_out t = Metrics.Counter.get t.c_timeout
let replays_started t = Metrics.Counter.get t.c_replays
let requests_driven t = Metrics.Counter.get t.c_driven
let metrics t = t.metrics

(* ---------- runtime sampling --------------------------------------------- *)

let env t =
  {
    Core.now = Engine.now t.engine;
    epoch = Service.epoch_at t.membership t.node;
    live = (Service.node_view t.membership t.node).View.live;
    self_alive = Zeus_net.Fabric.is_alive (Transport.fabric t.transport) t.node;
    trace_on = Tspan.enabled t.tspans;
  }

(* ---------- the store ---------------------------------------------------- *)

(* The facts an input samples from, and the effects it applies to, one
   node's table.  They take the node from [Table.node], so the model
   checker runs them on its own tables. *)

let snapshot table key =
  let obj = Table.find table key in
  if obj == Obj.dummy then None
  else Some { value = Bytes.copy obj.Obj.data; t_version = obj.Obj.t_version }

let is_busy busy obj = match busy with Some b -> b | None -> Obj.busy obj

let facts core table ?busy payload =
  match payload with
  | O_req { key; _ } ->
    let obj = Table.find table key in
    { Core.no_facts with Core.f_busy = obj != Obj.dummy && is_busy busy obj }
  | O_inv { key; _ } ->
    let obj = Table.find table key in
    if obj == Obj.dummy then Core.no_facts
    else
      {
        Core.f_exists = true;
        f_o_ts = obj.Obj.o_ts;
        f_is_owner = Obj.is_owner obj;
        f_busy = is_busy busy obj;
        f_snapshot = None;
      }
  | O_ack { req_id; key; _ } ->
    {
      Core.no_facts with
      Core.f_exists = Table.mem table key;
      f_snapshot =
        (* only a replay driver's completion can consult the snapshot *)
        (if req_id.origin <> Table.node table && Core.has_replay core key then
           snapshot table key
         else None);
    }
  | O_resp { key; _ } ->
    let obj = Table.find table key in
    if obj == Obj.dummy then Core.no_facts
    else { Core.no_facts with Core.f_exists = true; f_o_ts = obj.Obj.o_ts }
  | _ -> Core.no_facts

(* The core reads a replay timer's snapshot only while the arbitration it
   was armed for is still pending. *)
let timer_facts core table = function
  | Core.T_replay { key; o_ts } -> (
    match Core.pending_ts core key with
    | Some ts when Ots.equal ts o_ts ->
      { Core.no_facts with Core.f_snapshot = snapshot table key }
    | Some _ | None -> Core.no_facts)
  | Core.T_timeout _ | Core.T_cleanup _ -> Core.no_facts

(* A request validated at this node: demote, trim or update the local
   replica. *)
let apply_arbiter table ~key ~kind ~o_ts ~replicas =
  let obj = Table.find table key in
  if obj != Obj.dummy then begin
    obj.Obj.o_ts <- o_ts;
    match kind with
    | Acquire ->
      if Obj.is_owner obj then begin
        (* Another node took over: demote to reader (§4); we keep the data
           and keep serving read-only transactions (§5.3). *)
        obj.Obj.role <- Types.Reader;
        obj.Obj.o_replicas <- Replicas.none
      end
    | Add_reader -> if Obj.is_owner obj then obj.Obj.o_replicas <- replicas
    | Remove_reader r ->
      if r = Table.node table then Table.remove table key
      else if Obj.is_owner obj then obj.Obj.o_replicas <- replicas
  end

(* This node's own request won: install the object or access level. *)
let apply_requester table ~key ~kind ~o_ts ~replicas ~data =
  match kind with
  | Acquire | Add_reader ->
    let role = match kind with Acquire -> Types.Owner | _ -> Types.Reader in
    let obj =
      let obj = Table.find table key in
      if obj != Obj.dummy then begin
        (match data with
        | Some d when d.t_version > obj.Obj.t_version ->
          obj.Obj.data <- d.value;
          obj.Obj.t_version <- d.t_version;
          obj.Obj.t_state <- Types.T_valid
        | Some _ | None -> ());
        obj
      end
      else begin
        let d = Option.get data in
        let obj = Obj.create ~key ~role ~version:d.t_version ~o_ts d.value in
        Table.install table obj;
        obj
      end
    in
    obj.Obj.role <- role;
    obj.Obj.o_ts <- o_ts;
    obj.Obj.o_state <- Types.O_valid;
    obj.Obj.o_replicas <- (if role = Types.Owner then replicas else Replicas.none)
  | Remove_reader r ->
    let obj = Table.find table key in
    if obj != Obj.dummy then begin
      obj.Obj.o_ts <- o_ts;
      if r = Table.node table then Table.remove table key
      else if Obj.is_owner obj then obj.Obj.o_replicas <- replicas
    end

let apply_store table (e : Core.eff) =
  match e with
  | Core.Apply_arbiter { key; kind; o_ts; replicas } ->
    apply_arbiter table ~key ~kind ~o_ts ~replicas
  | Core.Apply_requester { key; kind; o_ts; replicas; data } ->
    apply_requester table ~key ~kind ~o_ts ~replicas ~data
  | Core.Set_o_state { key; o_state } ->
    let obj = Table.find table key in
    if obj != Obj.dummy then obj.Obj.o_state <- o_state
  | Core.Restore_request_state key ->
    let obj = Table.find table key in
    if obj != Obj.dummy && obj.Obj.o_state = Types.O_request then
      obj.Obj.o_state <- Types.O_valid
  | Core.Drop_dead_replicas { live } ->
    (* [Replicas.drop_dead] returns [Replicas.none] itself. *)
    Table.iter table (fun obj ->
        if Obj.is_owner obj then
          obj.Obj.o_replicas <- Replicas.drop_dead obj.Obj.o_replicas ~live:(fun n -> live.(n)))
  | Core.Send _ | Core.Send_ack_local_data _ | Core.Flush | Core.Set_timer _
  | Core.Cancel_timer _ | Core.Notify_request _ | Core.Notify_owner_change _
  | Core.Unblock _ | Core.Telemetry _ ->
    ()

(* ---------- effect execution --------------------------------------------- *)

let counter_handle t = function
  | Core.C_started -> t.c_started
  | Core.C_won -> t.c_won
  | Core.C_nacked -> t.c_nacked
  | Core.C_timeout -> t.c_timeout
  | Core.C_replays -> t.c_replays
  | Core.C_driven -> t.c_driven

let exec_telemetry t = function
  | Core.Count c -> Metrics.Counter.incr (counter_handle t c)
  | Core.Arb_latency dt ->
    Stats.Samples.add t.latency dt;
    Metrics.Histogram.observe t.h_arb_us dt
  | Core.Span_start { token; key; kind; driver } ->
    let span =
      Tspan.start_span t.tspans ~cat:"ownership" ~pid:t.node ~parent:t.span_parent
        ~args:
          [
            ("key", string_of_int key);
            ("kind", Format.asprintf "%a" Messages.pp_kind kind);
            ("driver", if driver = t.node then "local" else "remote");
            ("driver_node", string_of_int driver);
          ]
        "arbitration"
    in
    Hashtbl.replace t.spans token span
  | Core.Span_finish { token; outcome } -> (
    match Hashtbl.find_opt t.spans token with
    | Some span ->
      let args =
        match outcome with
        | Core.Granted -> [ ("result", "granted") ]
        | Core.Timeout -> [ ("result", "timeout") ]
        | Core.Denied reason ->
          [
            ("result", "denied");
            ("reason", Format.asprintf "%a" pp_nack reason);
          ]
      in
      Tspan.finish t.tspans ~args span
    | None -> ())
  | Core.Span_forget token -> Hashtbl.remove t.spans token

let rec exec_eff t (e : Core.eff) =
  match e with
  | Core.Send { dst; size; payload } ->
    Transport.send t.transport ~src:t.node ~dst ~size payload
  | Core.Send_ack_local_data { dst; req_id; key; o_ts; new_replicas; arbiters; epoch }
    ->
    let data = snapshot t.table key in
    Transport.send t.transport ~src:t.node ~dst
      ~size:(64 + match data with Some s -> Value.size s.value | None -> 0)
      (O_ack
         { req_id; key; o_ts; new_replicas; arbiters; sender = t.node; data; epoch })
  | Core.Flush -> Transport.flush t.transport t.node
  | Core.Set_timer { token; after; kind } ->
    let ev =
      Engine.schedule t.engine ~after (fun () ->
          Window.remove t.timers token;
          feed t
            (Core.Timer_fire
               { token; kind; facts = timer_facts t.core t.table kind; env = env t }))
    in
    Window.set t.timers token ev
  | Core.Cancel_timer token ->
    if Window.mem t.timers token then begin
      Engine.cancel t.engine (Window.find t.timers token);
      Window.remove t.timers token
    end
  | Core.Apply_arbiter _ | Core.Apply_requester _ | Core.Set_o_state _
  | Core.Restore_request_state _ | Core.Drop_dead_replicas _ ->
    apply_store t.table e
  | Core.Notify_request { key; kind; requester } -> (
    match t.observer with
    | Some o -> o.on_request ~key ~kind ~requester
    | None -> ())
  | Core.Notify_owner_change { key; owner } -> (
    match t.observer with
    | Some o -> o.on_owner_change ~key ~owner
    | None -> ())
  | Core.Unblock { seq; result } ->
    let k = Window.find t.unblocks seq in
    if k != no_unblock then begin
      Window.remove t.unblocks seq;
      k result
    end
  | Core.Telemetry tele -> exec_telemetry t tele

and exec_range t out i stop =
  if i < stop then begin
    exec_eff t (Outbox.get out i);
    exec_range t out (i + 1) stop
  end

(* The core leaves an input's effects in its buffer; they run in place and
   are then truncated away.  An [Unblock] continuation may request again
   on this agent mid-walk: that nested feed's effects go above [stop] and
   are gone before the walk resumes (the stack discipline of {!Outbox}).
   Seeding a key emits nothing, and populating a store seeds every key, so
   an empty slice skips the walk. *)
and feed t input =
  let out = Core.effects t.core in
  let mark = Outbox.length out in
  Core.step ~dir:t.dir_nodes_of t.core input;
  let stop = Outbox.length out in
  (match t.io_tap with Some tap -> tap input (Outbox.to_list out ~from:mark) | None -> ());
  if stop > mark then begin
    exec_range t out mark stop;
    Outbox.truncate out mark
  end

(* ---------- public API ---------------------------------------------------- *)

let request ?(parent = Tspan.null_span) t ~key ~kind ~k =
  let seq = Core.next_seq t.core in
  Window.set t.unblocks seq k;
  t.span_parent <- parent;
  feed t
    (Core.Api_request
       {
         key;
         kind;
         facts = { Core.no_facts with Core.f_exists = Table.mem t.table key };
         env = env t;
       });
  t.span_parent <- Tspan.null_span

let handle t ~src payload =
  if Core.handles_payload payload then begin
    feed t (Core.Deliver { src; payload; facts = facts t.core t.table payload; env = env t });
    true
  end
  else false

let seed_directory t key replicas = feed t (Core.Api_seed { key; replicas })
let register_object t key replicas =
  feed t (Core.Api_register { key; replicas; env = env t })

let forget_object t key = feed t (Core.Api_forget { key; env = env t })

let announce_recovery_done t ~epoch =
  feed t (Core.Api_recovery_done { epoch; env = env t })

let on_view_change t (v : View.t) =
  feed t
    (Core.View_change { view_epoch = v.View.epoch; live = v.View.live; env = env t })

let reset t = feed t Core.Reset

let create ?(config = default_config) ?telemetry ~node ~dir_nodes_of ~table ~membership
    transport =
  let engine = Zeus_net.Fabric.engine (Transport.fabric transport) in
  let nodes = Zeus_net.Fabric.nodes (Transport.fabric transport) in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let metrics = Metrics.create () in
  let t =
    {
      core = Core.create ~config ~self:node ~nodes ();
      node;
      dir_nodes_of;
      table;
      membership;
      transport;
      engine;
      unblocks = Window.create ~dummy:no_unblock;
      timers = Window.create ~dummy:Engine.no_event;
      spans = Hashtbl.create 64;
      span_parent = Tspan.null_span;
      latency = Stats.Samples.create (Engine.fork_rng engine);
      metrics;
      tspans = Hub.trace hub;
      c_started = Metrics.Counter.v metrics "ownership.requests_started";
      c_won = Metrics.Counter.v metrics "ownership.requests_won";
      c_nacked = Metrics.Counter.v metrics "ownership.requests_nacked";
      c_timeout = Metrics.Counter.v metrics "ownership.requests_timed_out";
      c_replays = Metrics.Counter.v metrics "ownership.replays_started";
      c_driven = Metrics.Counter.v metrics "ownership.requests_driven";
      h_arb_us = Metrics.Histogram.v metrics "ownership.arbitration_us";
      observer = None;
      io_tap = None;
    }
  in
  Service.subscribe membership node (fun v -> on_view_change t v);
  t
