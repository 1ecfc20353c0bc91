(** TPC-C, executed (an extension: the paper only analyses TPC-C's
    locality, §8, predicting that it favours Zeus).  Zeus runs the full
    five-transaction mix with dynamic ownership; the baseline runs the
    key-set equivalent under static warehouse partitioning. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module W = Zeus_workload
module B = Zeus_baseline

let zeus_run ~quick ~nodes =
  let config = { Config.default with Config.nodes } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w = W.Tpcc_bench.create ~warehouses:(2 * nodes) ~nodes rng in
  W.Tpcc_bench.populate w cluster;
  let r, owntxn_pct = Exp.run_zeus cluster ~quick ~issue:(W.Tpcc_bench.issue w) in
  (r, owntxn_pct, 100.0 *. W.Tpcc_bench.remote_line_fraction w)

let baseline_run ~quick ~nodes profile =
  let s = Exp.scale_of ~quick in
  let config = { Config.default with Config.nodes } in
  let rng = Zeus_sim.Rng.create 21L in
  let w = W.Tpcc_bench.create ~warehouses:(2 * nodes) ~nodes rng in
  let eng =
    B.Engine.create ~profile ~config ~primary_of:(fun k -> W.Tpcc_bench.home_of_key w k) ()
  in
  B.Engine.run_load eng ~warmup_us:s.Exp.warmup_us ~duration_us:s.Exp.duration_us
    ~gen:(fun ~home -> W.Tpcc_bench.gen_spec w ~home)
    ()

let run ~quick =
  let zeus, owntxn_pct, remote_lines = zeus_run ~quick ~nodes:3 in
  let fasst = baseline_run ~quick ~nodes:3 B.Profile.fasst in
  Exp.print_kv "tpcc: executed TPC-C (extension; paper only analyses locality)"
    [
      ("Zeus (3 nodes, dynamic sharding)",
       Printf.sprintf "%.3f Mtps (%.1f%% aborts)" zeus.W.Driver.mtps
         (100.0 *. zeus.W.Driver.abort_rate));
      ("FaSST-like (3 nodes, static warehouse sharding)",
       Printf.sprintf "%.3f Mtps" fasst.W.Driver.mtps);
      ("Zeus txns needing ownership change",
       Printf.sprintf "%.2f%%" owntxn_pct);
      ("remote stock lines issued", Printf.sprintf "%.2f%% (spec: 1%%)" remote_lines);
      ( "paper's analysis",
        "~2.45% remote transactions; high locality should favour Zeus" );
      ( "finding",
        "executed TPC-C disagrees with the analysis: the spec's 15% remote "
        ^ "payments plus ~10% remote-line new-orders, doubled by steal-backs, "
        ^ "put ownership churn past Zeus' break-even; static sharding wins "
        ^ "unless payments are routed to the customer's home" );
    ]
