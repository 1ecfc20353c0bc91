(* Thin interpreter over {!Core}: samples the environment, feeds inputs,
   and executes their effects against the real engine — transport
   sends, store transforms, telemetry, the caller's durability
   continuation.  All protocol logic lives in the sans-I/O core. *)

module Metrics = Zeus_telemetry.Metrics
module Tspan = Zeus_telemetry.Trace
module Hub = Zeus_telemetry.Hub
module Transport = Zeus_net.Transport
module Service = Zeus_membership.Service
module View = Zeus_membership.View
open Zeus_store

type callbacks = {
  on_freed : Types.key -> unit;
  recovery_drained : epoch:int -> unit;
}

type t = {
  core : Core.state;
  node : Types.node_id;
  table : Table.t;
  membership : Service.t;
  cb : callbacks;
  transport : Transport.t;
  mutable durables : (unit -> unit) Window.t array;  (* by thread, then slot *)
  spans : (int, Tspan.span) Hashtbl.t;  (* span token -> live span *)
  mutable span_parent : Tspan.span;
  metrics : Metrics.t;
  tspans : Tspan.t;
  c_started : Metrics.Counter.h;
  c_durable : Metrics.Counter.h;
  c_replays : Metrics.Counter.h;
  mutable io_tap : (Core.input -> Core.eff list -> unit) option;
  mutable env_view : View.t;  (* the view [env_cache] was sampled from *)
  mutable env_cache : Core.env;
}

let node t = t.node
let replays_started t = Metrics.Counter.get t.c_replays
let metrics t = t.metrics
let inflight t = Core.inflight t.core
let stored_invs t = Core.stored_invs t.core
let buffered_invs t = Core.buffered_invs t.core
let set_io_tap t f = t.io_tap <- Some f
let core_fingerprint t = Core.fingerprint t.core

(* ---------- runtime sampling --------------------------------------------- *)

(* Views are immutable and [trace_on] is fixed at creation, so the sampled
   env stays exact for as long as the node's view is the same record. *)
let env t =
  let v = Service.node_view t.membership t.node in
  if v != t.env_view then begin
    t.env_view <- v;
    t.env_cache <-
      { Core.epoch = v.View.epoch; live = v.View.live; trace_on = Tspan.enabled t.tspans }
  end;
  t.env_cache

let no_durable () = ()

let durables_of t thread =
  let len = Array.length t.durables in
  if thread >= len then
    t.durables <-
      Array.init (max (thread + 1) (2 * len)) (fun i ->
          if i < len then t.durables.(i) else Window.create ~dummy:no_durable);
  t.durables.(thread)

(* ---------- the store ---------------------------------------------------- *)

(* Reliably committed: validate unchanged objects locally, finish freed
   ones, and release the pipelining guard ([pending_rc]).  A loop, not
   [List.iter]: a closure over [table] and [on_freed] would allocate on
   every commit. *)
let rec validate_local table ~on_freed = function
  | [] -> ()
  | (u : Txn.update) :: rest ->
    let obj = Table.find table u.key in
    if obj != Obj.dummy then begin
      obj.Obj.pending_rc <- obj.Obj.pending_rc - 1;
      if obj.Obj.t_version = u.version then begin
        if u.freed then begin
          Table.remove table u.key;
          on_freed u.key
        end
        else obj.Obj.t_state <- Types.T_valid
      end
    end;
    validate_local table ~on_freed rest

(* Apply the writes of an R-INV version-monotonically (§5.1).  Receiving an
   R-INV for an object we do not store means the coordinator just made us a
   reader of it (object creation, §7 malloc) — install it.  Replays never
   install: a reader that was reliably removed must not resurrect.  This
   and [validate_stored] are loops for the reason [validate_local] is. *)
let rec apply_writes table ~install = function
  | [] -> ()
  | (u : Txn.update) :: rest ->
    let obj = Table.find table u.key in
    if obj != Obj.dummy then begin
      if u.version > obj.Obj.t_version then begin
        obj.Obj.data <- u.data;
        obj.Obj.t_version <- u.version;
        obj.Obj.t_state <- Types.T_invalid
      end
    end
    else if install && not u.freed then begin
      let obj = Obj.create ~key:u.key ~role:Types.Reader ~version:u.version u.data in
      obj.Obj.t_state <- Types.T_invalid;
      Table.install table obj
    end;
    apply_writes table ~install rest

(* An R-VAL (or equivalent) for a stored R-INV: validate objects whose
   version is unchanged, complete frees. *)
let rec validate_stored table = function
  | [] -> ()
  | (u : Txn.update) :: rest ->
    let obj = Table.find table u.key in
    if obj != Obj.dummy && obj.Obj.t_version = u.version then begin
      if u.freed then Table.remove table u.key
      else if obj.Obj.t_state = Types.T_invalid then obj.Obj.t_state <- Types.T_valid
    end;
    validate_stored table rest

let apply_store table ~on_freed (e : Core.eff) =
  match e with
  | Core.Validate_local { writes } -> validate_local table ~on_freed writes
  | Core.Apply_writes { install; writes } -> apply_writes table ~install writes
  | Core.Validate_stored { writes } -> validate_stored table writes
  | Core.Send _ | Core.Flush | Core.Durable _ | Core.Drained _ | Core.Telemetry _ -> ()

(* ---------- effect execution --------------------------------------------- *)

let exec_telemetry t = function
  | Core.Count C_started -> Metrics.Counter.incr t.c_started
  | Core.Count C_durable -> Metrics.Counter.incr t.c_durable
  | Core.Count C_replays -> Metrics.Counter.incr t.c_replays
  | Core.Span_start { token; thread; slot; followers; writes } ->
    let span =
      Tspan.start_span t.tspans ~cat:"commit" ~pid:t.node ~tid:thread
        ~parent:t.span_parent
        ~args:
          [
            ("slot", string_of_int slot);
            ("followers", string_of_int followers);
            ("writes", string_of_int writes);
          ]
        "replication_ack"
    in
    Hashtbl.replace t.spans token span
  | Core.Span_finish token -> (
    match Hashtbl.find_opt t.spans token with
    | Some span ->
      Hashtbl.remove t.spans token;
      Tspan.finish t.tspans span
    | None -> ())

let exec_eff t (e : Core.eff) =
  match e with
  | Core.Send { dst; size; payload } ->
    Transport.send t.transport ~src:t.node ~dst ~size payload
  | Core.Flush ->
    (* Reliable-commit traffic is a natural batch AND off the application's
       critical path, so it rides the transport's full flush window; the
       core rings the doorbell only where extra delay could stall recovery
       (replays on a view change). *)
    Transport.flush t.transport t.node
  | Core.Validate_local _ | Core.Apply_writes _ | Core.Validate_stored _ ->
    apply_store t.table ~on_freed:t.cb.on_freed e
  | Core.Durable { tx } ->
    let ks = durables_of t tx.Messages.pipe.thread in
    let k = Window.find ks tx.Messages.slot in
    if k != no_durable then begin
      Window.remove ks tx.Messages.slot;
      k ()
    end
  | Core.Drained { epoch } -> t.cb.recovery_drained ~epoch
  | Core.Telemetry tele -> exec_telemetry t tele

let rec exec_range t out i stop =
  if i < stop then begin
    exec_eff t (Outbox.get out i);
    exec_range t out (i + 1) stop
  end

(* The core leaves an input's effects in its buffer; they run in place and
   are then truncated away.  A [Durable] continuation may commit again on
   this agent mid-walk: that nested feed's effects go above [stop] and are
   gone before the walk resumes (the stack discipline of {!Outbox}). *)
let feed t input =
  let out = Core.effects t.core in
  let mark = Outbox.length out in
  Core.step t.core input;
  let stop = Outbox.length out in
  (match t.io_tap with Some f -> f input (Outbox.to_list out ~from:mark) | None -> ());
  exec_range t out mark stop;
  Outbox.truncate out mark

(* ---------- public API ---------------------------------------------------- *)

let rec replica_sets table = function
  | [] -> []
  | (u : Txn.update) :: rest ->
    (* [Obj.dummy] and a reader hold [Replicas.none], whose [all] is []. *)
    let all = Replicas.all (Table.find table u.key).Obj.o_replicas in
    all :: replica_sets table rest

let commit ~parent t ~thread ~updates ~on_durable =
  let replica_sets = replica_sets t.table updates in
  let has_durable = on_durable != no_durable in
  if has_durable then
    Window.set (durables_of t thread) (Core.peek_slot t.core ~thread) on_durable;
  t.span_parent <- parent;
  feed t (Core.Api_commit { thread; updates; replica_sets; has_durable; env = env t });
  t.span_parent <- Tspan.null_span

let handle t ~src payload =
  if Core.handles_payload payload then begin
    feed t (Core.Deliver { src; payload; env = env t });
    true
  end
  else false

let on_view_change t (v : View.t) =
  feed t
    (Core.View_change { view_epoch = v.View.epoch; live = v.View.live; env = env t })

(* Fresh-incarnation reset for a rejoining node.  The pending durability
   continuations and spans die with the protocol state (commit has no
   timers, so unlike ownership there is no zombie path to preserve). *)
let reset t =
  feed t Core.Reset;
  Array.iter Window.clear t.durables;
  Hashtbl.reset t.spans

let create ?telemetry ?clear_marks ~node ~table ~membership ~callbacks transport =
  let nodes = Zeus_net.Fabric.nodes (Transport.fabric transport) in
  let hub = match telemetry with Some h -> h | None -> Hub.none () in
  let metrics = Metrics.create () in
  let t =
    {
      core = Core.create ?clear_marks ~self:node ~nodes ();
      node;
      table;
      membership;
      cb = callbacks;
      transport;
      durables = [||];
      spans = Hashtbl.create 16;
      span_parent = Tspan.null_span;
      metrics;
      tspans = Hub.trace hub;
      c_started = Metrics.Counter.v metrics "commit.commits_started";
      c_durable = Metrics.Counter.v metrics "commit.commits_durable";
      c_replays = Metrics.Counter.v metrics "commit.replays_started";
      io_tap = None;
      env_view = View.initial ~nodes:0;
      env_cache = { Core.epoch = 0; live = [||]; trace_on = false };
    }
  in
  Service.subscribe membership node (fun v -> on_view_change t v);
  t
