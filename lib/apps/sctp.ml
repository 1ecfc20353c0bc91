module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

type config = {
  per_packet_us : float;
  per_byte_us : float;
  state_bytes : int;
  duration_us : float;
}

let default_config =
  { per_packet_us = 6.0; per_byte_us = 0.0015; state_bytes = 6_800; duration_us = 100_000.0 }

type result = { pkts_per_s : float; mbps : float }

let conn_key = 1

let run ?(config = default_config) ~mode packet_size =
  let zconfig =
    { Config.default with Config.nodes = 2; replication_degree = 2; dir_replicas = 2 }
  in
  let cluster = Cluster.create ~config:zconfig () in
  let engine = Cluster.engine cluster in
  Cluster.populate cluster ~key:conn_key ~owner:0
    (Value.padded [ 0 ] ~size:config.state_bytes);
  let node = Cluster.node cluster 0 in
  let packets = ref 0 in
  let proto_us = config.per_packet_us +. (config.per_byte_us *. float_of_int packet_size) in
  (* Zeus port: the flow thread additionally snapshots the connection state
     into the transaction's private copy and serializes it for the R-INV
     (two passes over ~6.8 KB), plus the unoptimized state-access
     instrumentation the paper mentions; replication itself is pipelined. *)
  let copy_us =
    (2.0 *. float_of_int config.state_bytes *. Config.byte_proc_us) +. 8.0
  in
  let stop = config.duration_us in
  let rec loop seq =
    if Engine.now engine < stop then
      match mode with
      | `Vanilla ->
        ignore
          (Engine.schedule engine ~after:proto_us (fun () ->
               incr packets;
               loop (seq + 1)))
      | `Zeus ->
        Node.run_write node ~thread:0
          ~exec_us:(proto_us +. copy_us)
          ~body:(fun ctx commit ->
            Node.read_write ctx conn_key
              (fun _ -> Value.padded [ seq ] ~size:config.state_bytes)
              (fun _ -> commit ()))
          (fun outcome ->
            if outcome = Zeus_store.Txn.Committed then incr packets;
            loop (seq + 1))
  in
  ignore (Engine.schedule engine ~after:0.0 (fun () -> loop 0));
  Cluster.run cluster ~until_us:(stop +. 1_000.0);
  let pkts_per_s = float_of_int !packets /. config.duration_us *. 1e6 in
  { pkts_per_s; mbps = pkts_per_s *. float_of_int packet_size *. 8.0 /. 1e6 }
