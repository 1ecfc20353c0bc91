(** Transport ablation: batched vs unbatched reliable messaging.

    The paper's DPDK messaging layer batches protocol messages per peer and
    amortizes acknowledgements.  The unbatched arm runs the same transport
    with one payload per frame and one standalone 16-byte ack per frame.
    This experiment runs the same workloads under both modes and reports
    the per-transaction message, byte, and simulator-event budgets:

    - {e Smallbank}, 3 nodes, default fabric — the acceptance workload:
      batching must cut fabric messages/txn by ≥ 30% ([messages_cut_ok]
      in [BENCH_transport.json], gated by [make bench-smoke]) without
      reducing committed throughput;
    - {e handover} (fig. 7's workload, 3 nodes, 2.5% handovers) — a mix of
      commit replication and ownership arbitration fan-outs.

    Events dispatched per committed transaction is the simulator's
    wall-clock proxy: per-frame delivery and ack events dominate the heap,
    so batching shows up directly there. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module W = Zeus_workload

type arm = {
  committed : int;
  mtps : float;
  abort_rate : float;
  p50 : float;
  p99 : float;
  messages : int;  (** fabric frames in the measurement window *)
  bytes : int;
  events : int;  (** simulator events dispatched in the window *)
  retransmissions : int;
  frames : int;  (** transport data frames (whole run) *)
  payloads : int;  (** protocol payloads carried (whole run) *)
  mean_occupancy : float;  (** payloads per data frame *)
  piggybacked_acks : int;
  standalone_acks : int;
}

type results = {
  quick : bool;
  smallbank : arm * arm;  (** unbatched, batched *)
  handover : arm * arm;
}

let per_txn v a = if a.committed = 0 then 0.0 else float_of_int v /. float_of_int a.committed
let msgs_per_txn a = per_txn a.messages a
let bytes_per_txn a = per_txn a.bytes a
let events_per_txn a = per_txn a.events a

(* Run one arm: build the cluster, install the workload, and measure the
   fabric/engine deltas over the driver's measurement window.  Returns the
   arm and its cluster (for the phase-breakdown table). *)
let measure ~config ~warmup_us ~duration_us ~setup =
  let cluster = Cluster.create ~config () in
  let eng = Cluster.engine cluster in
  let fab = Cluster.fabric cluster in
  let issue = setup cluster in
  let msgs0 = ref 0 and bytes0 = ref 0 and events0 = ref 0 and rtx0 = ref 0 in
  let msgs1 = ref 0 and bytes1 = ref 0 and events1 = ref 0 and rtx1 = ref 0 in
  let snap (m, b, ev, rt) =
    m := Fabric.messages_sent fab;
    b := Fabric.bytes_sent fab;
    ev := Engine.events_dispatched eng;
    rt := Transport.retransmissions (Cluster.transport cluster)
  in
  ignore (Engine.schedule eng ~after:warmup_us (fun () -> snap (msgs0, bytes0, events0, rtx0)));
  ignore
    (Engine.schedule eng ~after:(warmup_us +. duration_us) (fun () ->
         snap (msgs1, bytes1, events1, rtx1)));
  let r = W.Driver.run cluster ~warmup_us ~duration_us ~issue () in
  let st = Transport.stats (Cluster.transport cluster) in
  {
    committed = r.W.Driver.committed;
    mtps = r.W.Driver.mtps;
    abort_rate = r.W.Driver.abort_rate;
    p50 = r.W.Driver.lat_p50_us;
    p99 = r.W.Driver.lat_p99_us;
    messages = !msgs1 - !msgs0;
    bytes = !bytes1 - !bytes0;
    events = !events1 - !events0;
    retransmissions = !rtx1 - !rtx0;
    frames = st.Transport.frames;
    payloads = st.Transport.payloads;
    mean_occupancy = st.Transport.mean_occupancy;
    piggybacked_acks = st.Transport.piggybacked_acks;
    standalone_acks = st.Transport.standalone_acks;
  },
  cluster

let smallbank_setup (s : Exp.scale) cluster =
  let config = Cluster.config cluster in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node
      ~nodes:config.Config.nodes ~remote_frac:0.0 rng
  in
  W.Smallbank.populate w cluster;
  W.Spec.issue (W.Smallbank.gen w)

let handover_setup (s : Exp.scale) cluster =
  let config = Cluster.config cluster in
  let nodes = config.Config.nodes in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let users_per_node = s.Exp.objects_per_node in
  let stations_per_node = max 20 (users_per_node / 200) in
  let w =
    W.Handover.create ~users_per_node ~stations_per_node ~nodes ~handover_frac:0.025
      ~remote_handover_frac:0.3 rng
  in
  W.Handover.populate w cluster;
  W.Handover.issue w

let one ~quick ~batched ~setup =
  let s = Exp.scale_of ~quick in
  let transport =
    if batched then Transport.default_config
    else Transport.unbatched Transport.default_config
  in
  let config = { Config.default with Config.nodes = 3; transport } in
  measure ~config ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
    ~setup:(setup s)

(* Four independent simulations: sweep them (bit-identical to running
   sequentially).  Also returns the batched-Smallbank cluster (the
   acceptance workload), whose hub feeds the per-phase breakdown table. *)
let compute ~quick =
  let arms =
    Sweep.map
      (fun (batched, setup) -> one ~quick ~batched ~setup)
      [
        (false, smallbank_setup);
        (true, smallbank_setup);
        (false, handover_setup);
        (true, handover_setup);
      ]
  in
  match arms with
  | [ (sb_u, _); (sb_b, sb_cluster); (ho_u, _); (ho_b, _) ] ->
    ({ quick; smallbank = (sb_u, sb_b); handover = (ho_u, ho_b) }, sb_cluster)
  | _ -> assert false

module J = Zeus_telemetry.Jsonv

let arm_to_json a =
  J.Obj
    [
      ("committed", J.int a.committed); ("mtps", J.num a.mtps);
      ("abort_rate", J.num a.abort_rate); ("p50_us", J.num a.p50); ("p99_us", J.num a.p99);
      ("messages", J.int a.messages); ("bytes", J.int a.bytes); ("events", J.int a.events);
      ("messages_per_txn", J.num (msgs_per_txn a)); ("bytes_per_txn", J.num (bytes_per_txn a));
      ("events_per_txn", J.num (events_per_txn a));
      ("retransmissions", J.int a.retransmissions); ("frames", J.int a.frames);
      ("payloads", J.int a.payloads); ("mean_occupancy", J.num a.mean_occupancy);
      ("acks_piggybacked", J.int a.piggybacked_acks);
      ("acks_standalone", J.int a.standalone_acks);
    ]

(* The ablation's acceptance: batching cuts fabric messages/txn by at
   least 30 %.  Throughput is not gated: the two arms commit within noise
   of each other. *)
let messages_cut_ok (unbatched, batched) =
  msgs_per_txn batched <= 0.7 *. msgs_per_txn unbatched

let to_json r =
  let pair ((unbatched, batched) as p) =
    J.Obj
      [
        ("unbatched", arm_to_json unbatched); ("batched", arm_to_json batched);
        ("messages_cut_ok", J.Bool (messages_cut_ok p));
      ]
  in
  J.Obj
    [ ("quick", J.Bool r.quick); ("smallbank", pair r.smallbank); ("handover", pair r.handover) ]

let print_pair title (unbatched, batched) =
  let f = Printf.sprintf in
  let delta get =
    let u = get unbatched and b = get batched in
    if u = 0.0 then "n/a" else f "%+.1f%%" (100.0 *. ((b -. u) /. u))
  in
  Exp.print_kv title
    [
      ( "messages/txn",
        f "unbatched %.2f -> batched %.2f (%s)" (msgs_per_txn unbatched)
          (msgs_per_txn batched) (delta msgs_per_txn) );
      ( "bytes/txn",
        f "unbatched %.1f -> batched %.1f (%s)" (bytes_per_txn unbatched)
          (bytes_per_txn batched) (delta bytes_per_txn) );
      ( "events/txn",
        f "unbatched %.1f -> batched %.1f (%s)" (events_per_txn unbatched)
          (events_per_txn batched) (delta events_per_txn) );
      ( "committed Mtps",
        f "unbatched %.3f -> batched %.3f (%s)" unbatched.mtps batched.mtps
          (delta (fun a -> a.mtps)) );
      ( "p50/p99 latency (us)",
        f "unbatched %.1f/%.1f -> batched %.1f/%.1f" unbatched.p50 unbatched.p99
          batched.p50 batched.p99 );
      ( "batch occupancy (payloads/frame)",
        f "%.2f mean (%d payloads in %d frames)" batched.mean_occupancy
          batched.payloads batched.frames );
      ( "acks",
        f "piggybacked %d, standalone %d (unbatched: %d, one per frame)"
          batched.piggybacked_acks batched.standalone_acks unbatched.standalone_acks );
      ( "retransmissions (window)",
        f "unbatched %d -> batched %d" unbatched.retransmissions batched.retransmissions
      );
    ]

let run ~quick =
  let r, table_cluster = compute ~quick in
  print_pair "transport: Smallbank, 3 nodes, default fabric" r.smallbank;
  print_pair "transport: handovers (2.5%, 3 nodes)" r.handover;
  Exp.print_phase_breakdown "transport: per-phase txn latency (Smallbank, batched)"
    table_cluster;
  r
