module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module Service = Zeus_membership.Service
module View = Zeus_membership.View
module Own = Zeus_ownership
open Zeus_store

type t = {
  config : Config.t;
  engine : Engine.t;
  fabric : Fabric.t;
  transport : Transport.t;
  membership : Service.t;
  history : History.t option;
  telemetry : Zeus_telemetry.Hub.t;
  nodes : Node.t array;
}

let create ?(config = Config.default) ?(tracing = false) () =
  let engine = Engine.create ~seed:config.Config.seed () in
  let fabric = Fabric.create engine ~nodes:config.Config.nodes config.Config.fabric in
  let telemetry =
    Zeus_telemetry.Hub.create ~tracing ~now:(fun () -> Engine.now engine) ()
  in
  let transport = Transport.create ~config:config.Config.transport ~telemetry fabric in
  let membership =
    Service.create ~mode:config.Config.membership_mode ~detection:config.Config.detection
      ~telemetry transport
  in
  let history = if config.Config.record_history then Some (History.create ()) else None in
  let nodes =
    Array.init config.Config.nodes (fun id ->
        Node.create ~telemetry ~config ~id ~transport ~membership ~history ())
  in
  let t = { config; engine; fabric; transport; membership; history; telemetry; nodes } in
  (* A fenced node (falsely suspected but alive — its lease died under it)
     rejoins as a fresh incarnation after a short backoff, protocol state
     wiped, unless a crash/rejoin schedule already revived it. *)
  Service.set_fence_hook membership (fun n ->
      ignore
        (Engine.schedule engine ~after:Service.rejoin_backoff_us (fun () ->
             if not (Fabric.is_alive fabric n) then begin
               Node.reset t.nodes.(n);
               Service.rejoin membership n
             end)));
  t

let config t = t.config
let engine t = t.engine
let fabric t = t.fabric
let transport t = t.transport
let membership t = t.membership
let history t = t.history
let telemetry t = t.telemetry
let trace t = Zeus_telemetry.Hub.trace t.telemetry
let nodes t = Array.length t.nodes
let node t i = t.nodes.(i)

(* Per-key state is what a large store's set-up time and memory pay for,
   so the replicas share one copy of the initial value and the owner's
   replica set.  Sharing is safe: a committed write replaces [Obj.data]
   rather than mutating it, and [Txn.open_write] copies before writing. *)
let populate t ~key ~owner value =
  let replicas = Node.home_replicas t.nodes.(owner) in
  let value = Bytes.copy value in
  List.iter
    (fun n ->
      let role = if n = owner then Types.Owner else Types.Reader in
      let obj = Obj.create ~key ~role ~version:1 value in
      if role = Types.Owner then obj.Obj.o_replicas <- replicas;
      Table.install (Node.table t.nodes.(n)) obj)
    (Replicas.all replicas);
  List.iter
    (fun d -> Own.Agent.seed_directory (Node.ownership_agent t.nodes.(d)) key replicas)
    (Config.dir_nodes_for t.config ~key)

(* Size each node's table and directory shard once, exactly to the
   highest dense key it will hold, so seeding a large store neither copies
   nor leaves behind the arrays that growth by doubling would.  Scanning
   down from the top key, the first key a node holds is its highest, so
   the scan stops once every node has been seen (at the first key when
   every node holds the top one). *)
let reserve_for t ~lo ~hi ~base ~owner_of =
  let nodes = Array.length t.nodes in
  let table_hi = Array.make nodes 0 and dir_hi = Array.make nodes 0 in
  let unseen = ref (2 * nodes) in
  let see bound key n =
    if bound.(n) = 0 then begin
      bound.(n) <- key + 1;
      decr unseen
    end
  in
  let key = ref (hi - 1) in
  while !key >= lo && !unseen > 0 do
    let k = !key in
    let owner = t.nodes.(owner_of (k - base)) in
    List.iter (see table_hi k) (Replicas.all (Node.home_replicas owner));
    List.iter (see dir_hi k) (Config.dir_nodes_for t.config ~key:k);
    decr key
  done;
  Array.iteri
    (fun n node ->
      Table.reserve (Node.table node) table_hi.(n);
      Own.Directory.reserve (Own.Agent.directory (Node.ownership_agent node)) dir_hi.(n))
    t.nodes

let populate_n t ~n ?(base = 0) ~owner_of value_of =
  reserve_for t ~lo:(max base 0) ~hi:(min (base + n) Dense_map.max_dense) ~base ~owner_of;
  for i = 0 to n - 1 do
    populate t ~key:(base + i) ~owner:(owner_of i) (value_of i)
  done

let kill t i = Service.kill t.membership i
let rejoin t i =
  (* crash-stop: the node returns as a fresh, empty incarnation *)
  Node.reset t.nodes.(i);
  Service.rejoin t.membership i

let run t ~until_us = Engine.run ~until:until_us t.engine

let run_quiesce t ?(max_us = 1e8) () =
  (* Standing heartbeat timers would keep the engine from draining. *)
  Service.suspend t.membership;
  Engine.run ~until:(Engine.now t.engine +. max_us) t.engine

let total_committed t = Array.fold_left (fun acc n -> acc + Node.committed n) 0 t.nodes
let total_aborted t = Array.fold_left (fun acc n -> acc + Node.aborted n) 0 t.nodes

let total_ro_committed t =
  Array.fold_left (fun acc n -> acc + Node.ro_committed n) 0 t.nodes

let digest t =
  Printf.sprintf "c%d/r%d/a%d/e%d/t%h/m%d/b%d" (total_committed t) (total_ro_committed t)
    (total_aborted t) (Engine.events_dispatched t.engine) (Engine.now t.engine)
    (Fabric.messages_sent t.fabric) (Fabric.bytes_sent t.fabric)

(* ---------- invariants (§8) ---------------------------------------------- *)

let live_nodes t =
  List.filter (fun i -> Fabric.is_alive t.fabric i) (List.init (nodes t) (fun i -> i))

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let all_keys t =
  let keys = Hashtbl.create 1024 in
  List.iter
    (fun i ->
      Table.iter (Node.table t.nodes.(i)) (fun obj -> Hashtbl.replace keys obj.Obj.key ()))
    (live_nodes t);
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let check_key t key =
  let live = live_nodes t in
  let holders =
    List.filter_map
      (fun i ->
        let obj = Table.find (Node.table t.nodes.(i)) key in
        if obj == Obj.dummy then None else Some (i, obj))
      live
  in
  let owners = List.filter (fun (_, o) -> Obj.is_owner o) holders in
  match owners with
  | _ :: _ :: _ ->
    err "key %d: multiple live owners (%s)" key
      (String.concat "," (List.map (fun (i, _) -> string_of_int i) owners))
  | _ ->
    let vmax = List.fold_left (fun acc (_, o) -> max acc o.Obj.t_version) 0 holders in
    let owner_ok =
      match owners with
      | [ (_, o) ] -> o.Obj.t_version = vmax
      | _ -> true
    in
    if not owner_ok then err "key %d: owner does not hold the highest version" key
    else begin
      (* All live replicas in Valid state must agree on the latest value. *)
      let valid = List.filter (fun (_, o) -> o.Obj.t_state = Types.T_valid) holders in
      let mismatch =
        List.exists
          (fun (_, o) -> o.Obj.t_version = vmax
                         && List.exists
                              (fun (_, o') ->
                                o'.Obj.t_version = vmax
                                && not (Value.equal o.Obj.data o'.Obj.data))
                              valid)
          valid
      in
      if mismatch then err "key %d: valid replicas disagree on data" key
      else begin
        (* Directory agreement is timestamp-relative: a replica whose
           pending arbitration was rolled back (busy-NACK) may lag at an
           older o_ts until the next arbitration repairs it — that is safe
           because every request is arbitrated by all live directory
           replicas plus the true owner.  What must hold: entries at the
           owner's timestamp name the owner, no entry is ahead of the
           owner, and equal-timestamp entries agree pairwise. *)
        let entries =
          List.filter_map
            (fun d ->
              if not (Fabric.is_alive t.fabric d) then None
              else
                let dir = Own.Agent.directory (Node.ownership_agent t.nodes.(d)) in
                let entry = Own.Directory.find dir key in
                if entry != Own.Directory.dummy && entry.Own.Directory.pending = None then
                  Some (d, entry.Own.Directory.o_ts, entry.Own.Directory.replicas)
                else None)
            (Config.dir_nodes_for t.config ~key)
        in
        let pairwise_ok =
          List.for_all
            (fun (_, ts1, r1) ->
              List.for_all
                (fun (_, ts2, r2) ->
                  (not (Zeus_store.Ots.equal ts1 ts2))
                  || r1.Replicas.owner = r2.Replicas.owner)
                entries)
            entries
        in
        if not pairwise_ok then
          err "key %d: equal-timestamp directory replicas disagree" key
        else begin
          match owners with
          | [ (i, obj) ] ->
            let owner_ts = obj.Obj.o_ts in
            let ok =
              List.for_all
                (fun (_, ts, r) ->
                  if Zeus_store.Ots.equal ts owner_ts then r.Replicas.owner = Some i
                  else not Zeus_store.Ots.(ts > owner_ts))
                entries
            in
            if ok then Ok ()
            else err "key %d: directory disagrees with the owner at its o_ts" key
          | _ -> Ok ()
        end
      end
    end

let check_invariants t =
  let rec go = function
    | [] -> (
      match t.history with Some h -> History.check h | None -> Ok ())
    | key :: rest -> (
      match check_key t key with Ok () -> go rest | Error _ as e -> e)
  in
  (* Every lookup miss returns the one shared dummy: a write through an
     unchecked lookup would corrupt all of them at once. *)
  if not (Obj.dummy_pristine ()) then err "Obj.dummy was written to"
  else if not (Own.Directory.dummy_pristine ()) then err "Directory.dummy was written to"
  else go (all_keys t)
