(** Ablations of the design choices DESIGN.md calls out — beyond the
    paper's own figures. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module W = Zeus_workload

let smallbank_run ~quick ~config ~remote_frac =
  let s = Exp.scale_of ~quick in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w =
    W.Smallbank.create ~accounts_per_node:s.Exp.objects_per_node
      ~nodes:config.Config.nodes ~remote_frac rng
  in
  W.Smallbank.populate w cluster;
  W.Driver.run cluster ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
    ~issue:(W.Spec.issue (W.Smallbank.gen w)) ()

(* §5.2: what does non-blocking pipelining buy?  Depth 1 makes every
   transaction wait for the previous one's replication before starting its
   own reliable commit — the conventional blocking design. *)
let pipeline ~quick =
  let points =
    List.map
      (fun depth ->
        let config = { Config.default with Config.pipeline_depth = depth } in
        let r = smallbank_run ~quick ~config ~remote_frac:0.0 in
        (float_of_int depth, r.W.Driver.mtps))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Exp.print_figure
    {
      Exp.id = "ab_pipeline";
      title = "Ablation: reliable-commit pipeline depth (Smallbank, 3 nodes)";
      x_axis = "max in-flight reliable commits per thread";
      y_axis = "Mtps";
      series = [ { Exp.label = "Zeus"; points } ];
      paper =
        [ "no paper counterpart; §5.2 argues pipelining is what unblocks the app" ];
      notes = [];
    }

(* §3.1: replication degree vs throughput. *)
let replication ~quick =
  let points =
    List.map
      (fun degree ->
        let config =
          { Config.default with Config.nodes = 5; replication_degree = degree }
        in
        let r = smallbank_run ~quick ~config ~remote_frac:0.0 in
        (float_of_int degree, r.W.Driver.mtps))
      [ 1; 2; 3; 4; 5 ]
  in
  Exp.print_figure
    {
      Exp.id = "ab_replication";
      title = "Ablation: replication degree (Smallbank, 5 nodes)";
      x_axis = "replicas per object (owner included)";
      y_axis = "Mtps";
      series = [ { Exp.label = "Zeus"; points } ];
      paper =
        [
          "§3.1: \"the higher the degree of replication ... the lower the \
           throughput of transactions that modify the state\"";
        ];
      notes = [];
    }

(* §5.3: local read-only transactions from all replicas vs owner-only
   reads, on a read-heavy keyspace owned by one node. *)
let readonly ~quick =
  let s = Exp.scale_of ~quick in
  let run ~ro_everywhere =
    let config = { Config.default with Config.nodes = 3 } in
    let cluster = Cluster.create ~config () in
    let rng = Engine.fork_rng (Cluster.engine cluster) in
    let keys = s.Exp.objects_per_node in
    Cluster.populate_n cluster ~n:keys ~owner_of:(fun _ -> 0)
      (fun _ -> Bytes.copy (Zeus_store.Value.padded [ 1 ] ~size:64));
    let nodes = if ro_everywhere then None else Some [ 0 ] in
    let r =
      W.Driver.run cluster ?nodes ~warmup_us:s.Exp.warmup_us
        ~duration_us:s.Exp.duration_us
        ~issue:(fun node ~thread k ->
          W.Spec.run_on_zeus node ~thread (W.Spec.read_txn [ Zeus_sim.Rng.int rng keys ]) k)
        ()
    in
    r.W.Driver.mtps
  in
  Exp.print_kv "ab_readonly: consistent local reads from all replicas (§5.3)"
    [
      ("read-only txns served by owner only", Printf.sprintf "%.2f Mtps" (run ~ro_everywhere:false));
      ("read-only txns served by all 3 replicas", Printf.sprintf "%.2f Mtps" (run ~ro_everywhere:true));
    ]

(* §6.2: cost of ownership vs object size — a non-replica acquire carries
   the value, a reader's acquire does not. *)
let locality ~quick =
  let s = Exp.scale_of ~quick in
  let run ~size ~reader_requester =
    let config =
      if reader_requester then { Config.default with Config.nodes = 3 }
      else { Config.default with Config.nodes = 4; replication_degree = 3 }
    in
    let cluster = Cluster.create ~config () in
    let keys = 2_000 in
    (* Owned by node 0; node 2 is a reader in both configs, node 3 (when
       present) is a non-replica. *)
    Cluster.populate_n cluster ~n:keys ~owner_of:(fun _ -> 0)
      (fun _ -> Bytes.copy (Zeus_store.Value.padded [ 1 ] ~size));
    let requester = if reader_requester then 2 else 3 in
    let node = Cluster.node cluster requester in
    let engine = Cluster.engine cluster in
    let moved = ref 0 in
    let rec migrate key =
      if key < keys && Engine.now engine < s.Exp.duration_us then
        Node.acquire_ownership node key (fun _ ->
            incr moved;
            migrate (key + 1))
    in
    ignore (Engine.schedule engine ~after:1.0 (fun () -> migrate 0));
    Cluster.run cluster ~until_us:s.Exp.duration_us;
    let lat = Node.ownership_latency node in
    Zeus_sim.Stats.Samples.mean lat
  in
  let sizes = if quick then [ 64; 4096 ] else [ 64; 512; 4096; 16384 ] in
  Exp.print_figure
    {
      Exp.id = "ab_locality";
      title = "Ablation: ownership-acquire latency vs object size (§6.2)";
      x_axis = "object size (B)";
      y_axis = "mean latency (us)";
      series =
        [
          {
            Exp.label = "requester is a reader (no data transfer)";
            points =
              List.map
                (fun size -> (float_of_int size, run ~size ~reader_requester:true))
                sizes;
          };
          {
            Exp.label = "requester is a non-replica (value shipped in the ACK)";
            points =
              List.map
                (fun size -> (float_of_int size, run ~size ~reader_requester:false))
                sizes;
          };
        ];
      paper =
        [
          "§6.2: object size influences a non-replica's acquire like a remote \
           access; a reader acquires without the value";
        ];
      notes = [];
    }

(* §6.2: single replicated directory vs consistent-hash distributed
   directory, under limited locality at 6 nodes. *)
let directory ~quick =
  let run distributed =
    let config =
      {
        Config.default with
        Config.nodes = 6;
        distributed_directory = distributed;
      }
    in
    let r = smallbank_run ~quick ~config ~remote_frac:0.05 in
    (r.W.Driver.mtps, ())
  in
  let single, () = run false in
  let dist, () = run true in
  Exp.print_kv "ab_directory: single vs distributed directory (§6.2)"
    [
      ("single replicated directory (3 fixed nodes)", Printf.sprintf "%.2f Mtps" single);
      ("distributed directory (consistent hashing)", Printf.sprintf "%.2f Mtps" dist);
      ( "note",
        "at this scale both keep up; the distributed directory spreads "
        ^ "driver load across all nodes (see test/test_distdir.ml)" );
    ]

let run ~quick =
  pipeline ~quick;
  replication ~quick;
  readonly ~quick;
  locality ~quick;
  directory ~quick
