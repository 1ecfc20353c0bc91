open Zeus_store

type pending = {
  req_id : Messages.request_id;
  o_ts : Ots.t;
  base_ts : Ots.t;
  new_replicas : Replicas.t;
  kind : Messages.kind;
  requester : Types.node_id;
  arbiters : Types.node_id list;
  data_from : Types.node_id option;
  driving : bool;
  born : float;
}

type entry = {
  key : Types.key;
  mutable o_state : Types.o_state;
  mutable o_ts : Ots.t;
  mutable replicas : Replicas.t;
  mutable pending : pending option;
}

type t = { node : Types.node_id; entries : entry Dense_map.t }

let create ~node = { node; entries = Dense_map.create () }
let node t = t.node

let register t key replicas =
  if not (Dense_map.mem t.entries key) then
    Dense_map.replace t.entries key
      { key; o_state = Types.O_valid; o_ts = Ots.zero; replicas; pending = None }

let forget t key = Dense_map.remove t.entries key
let find t key = Dense_map.find t.entries key
let size t = Dense_map.size t.entries
let iter t fn = Dense_map.iter t.entries fn
let clear t = Dense_map.clear t.entries

let set_pending entry p =
  entry.pending <- Some p;
  entry.o_state <- (if p.driving then Types.O_drive else Types.O_invalid)

let clear_pending entry =
  entry.pending <- None;
  entry.o_state <- Types.O_valid

let apply_pending entry =
  match entry.pending with
  | None -> ()
  | Some p ->
    entry.o_ts <- p.o_ts;
    entry.replicas <- p.new_replicas;
    entry.pending <- None;
    entry.o_state <- Types.O_valid

let drop_dead t ~live =
  iter t (fun entry -> entry.replicas <- Replicas.drop_dead entry.replicas ~live)
