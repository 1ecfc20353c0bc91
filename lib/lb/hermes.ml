module Engine = Zeus_sim.Engine
module Transport = Zeus_net.Transport
open Zeus_store

type state = Valid | Invalid

type entry = {
  mutable state : state;
  mutable ts : Ots.t;
  mutable value : Value.t;
}

type Zeus_net.Msg.payload +=
  | H_inv of { key : Types.key; ts : Ots.t; value : Value.t; writer : Types.node_id }
  | H_ack of { key : Types.key; ts : Ots.t; sender : Types.node_id }
  | H_val of { key : Types.key; ts : Ots.t }

type pending_write = {
  w_ts : Ots.t;
  mutable w_missing : Types.node_id list;
  w_k : unit -> unit;
}

type t = {
  node : Types.node_id;
  replicas : Types.node_id list;
  transport : Transport.t;
  engine : Engine.t;
  entries : (Types.key, entry) Hashtbl.t;
  pending : (Types.key, pending_write) Hashtbl.t;
  mutable writes_committed : int;
}

let create ~node ~replicas transport =
  {
    node;
    replicas;
    transport;
    engine = Zeus_net.Fabric.engine (Transport.fabric transport);
    entries = Hashtbl.create 1024;
    pending = Hashtbl.create 32;
    writes_committed = 0;
  }

let node t = t.node
let keys t = Hashtbl.length t.entries
let writes_committed t = t.writes_committed

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
    let e = { state = Valid; ts = Ots.zero; value = Value.empty } in
    Hashtbl.replace t.entries key e;
    e

let send t ~dst ~size payload = Transport.send t.transport ~src:t.node ~dst ~size payload
let others t = List.filter (fun r -> r <> t.node) t.replicas

let read t key =
  match Hashtbl.find_opt t.entries key with
  | Some e when e.state = Valid && not (Ots.equal e.ts Ots.zero) -> Some e.value
  | Some _ | None -> None

let read_wait t key k =
  let rec attempt tries =
    match Hashtbl.find_opt t.entries key with
    | Some e when e.state = Invalid && tries > 0 ->
      ignore (Engine.schedule t.engine ~after:5.0 (fun () -> attempt (tries - 1)))
    | _ -> k (read t key)
  in
  attempt 20

let commit_write t key (p : pending_write) =
  let e = entry t key in
  if Ots.equal e.ts p.w_ts then e.state <- Valid;
  Hashtbl.remove t.pending key;
  t.writes_committed <- t.writes_committed + 1;
  List.iter (fun r -> send t ~dst:r ~size:48 (H_val { key; ts = p.w_ts })) (others t);
  p.w_k ()

let write t ~key value k =
  let e = entry t key in
  let ts = Ots.next e.ts ~node:t.node in
  e.ts <- ts;
  e.value <- value;
  e.state <- Invalid;
  (* A write still pending on this key is superseded by this one, which
     inherits its continuation: the older write's fires first, when this
     one commits or is itself superseded. *)
  let w_k =
    match Hashtbl.find_opt t.pending key with
    | Some older -> fun () -> older.w_k (); k ()
    | None -> k
  in
  let p = { w_ts = ts; w_missing = others t; w_k } in
  Hashtbl.replace t.pending key p;
  if p.w_missing = [] then commit_write t key p
  else
    List.iter
      (fun r ->
        send t ~dst:r
          ~size:(64 + Value.size value)
          (H_inv { key; ts; value; writer = t.node }))
      (others t)

let handle t ~src payload =
  match payload with
  | H_inv { key; ts; value; writer } ->
    let e = entry t key in
    if Ots.(ts > e.ts) then begin
      e.ts <- ts;
      e.value <- value;
      e.state <- Invalid;
      (* A concurrent local write with a smaller timestamp lost; its
         pending record will be superseded when our INV reaches the peer
         (which re-ACKs with the higher ts). *)
      match Hashtbl.find_opt t.pending key with
      | Some p when Ots.(ts > p.w_ts) ->
        Hashtbl.remove t.pending key;
        p.w_k ()
      | Some _ | None -> ()
    end;
    if Ots.(e.ts >= ts) then
      send t ~dst:writer ~size:48 (H_ack { key; ts; sender = t.node });
    ignore src;
    true
  | H_ack { key; ts; sender } ->
    (match Hashtbl.find_opt t.pending key with
    | Some p when Ots.equal p.w_ts ts ->
      p.w_missing <- List.filter (fun r -> r <> sender) p.w_missing;
      if p.w_missing = [] then commit_write t key p
    | Some _ | None -> ());
    true
  | H_val { key; ts } ->
    let e = entry t key in
    if Ots.equal e.ts ts then e.state <- Valid;
    true
  | _ -> false
