module Rng = Zeus_sim.Rng
module Value = Zeus_store.Value

type t = {
  hermes : Hermes.t;
  rng : Rng.t;
  mutable backends : Zeus_net.Msg.node_id list;
  mutable placement_hint : (int -> Zeus_net.Msg.node_id option) option;
  mutable hits : int;
  mutable misses : int;
  mutable reassigns : int;
}

let create ~node ~lb_nodes ~backends transport =
  {
    hermes = Hermes.create ~node ~replicas:lb_nodes transport;
    rng =
      Zeus_sim.Engine.fork_rng
        (Zeus_net.Fabric.engine (Zeus_net.Transport.fabric transport));
    backends;
    placement_hint = None;
    hits = 0;
    misses = 0;
    reassigns = 0;
  }

let hermes t = t.hermes
let hits t = t.hits
let misses t = t.misses
let reassigns t = t.reassigns
let set_backends t backends = t.backends <- backends
let set_placement_hint t f = t.placement_hint <- Some f

let route t ~key k =
  (* A placement engine's pin overrides the sticky map: a thrashing key's
     requests must follow the pin immediately, not after the reassign
     write propagates. *)
  match match t.placement_hint with Some f -> f key | None -> None with
  | Some dst -> k dst
  | None ->
    Hermes.read_wait t.hermes key (fun v ->
        match v with
        | Some dst ->
          t.hits <- t.hits + 1;
          k (Value.to_int dst)
        | None ->
          t.misses <- t.misses + 1;
          let dst = List.nth t.backends (Rng.int t.rng (List.length t.backends)) in
          Hermes.write t.hermes ~key (Value.of_int dst) (fun () -> k dst))

let reassign t ~key dst k =
  t.reassigns <- t.reassigns + 1;
  Hermes.write t.hermes ~key (Value.of_int dst) k

let handle t ~src payload = Hermes.handle t.hermes ~src payload
