(* bechamel microbenchmarks ([zeus_cli micro]): the protocol-critical code
   paths of this implementation, one simulated operation per iteration —
   regressions of the simulator and protocol engines themselves. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

type Zeus_net.Msg.payload += Bench_ping

let drain cluster = Cluster.run_quiesce cluster ~max_us:1e7 ()

let micro_tests () =
  let open Bechamel in
  (* rng *)
  let rng = Zeus_sim.Rng.create 1L in
  let zipf = Zeus_sim.Rng.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let t_rng =
    Test.make ~name:"rng/zipf-sample"
      (Staged.stage (fun () -> ignore (Zeus_sim.Rng.Zipf.sample zipf rng)))
  in
  (* fabric round trip *)
  let engine = Zeus_sim.Engine.create () in
  let fabric = Zeus_net.Fabric.create engine ~nodes:2 Zeus_net.Fabric.default_config in
  Zeus_net.Fabric.set_handler fabric 1 (fun ~src:_ _ -> ());
  let t_fabric =
    Test.make ~name:"net/fabric-send-deliver"
      (Staged.stage (fun () ->
           Zeus_net.Fabric.send fabric ~src:0 ~dst:1 Bench_ping;
           Zeus_sim.Engine.run engine))
  in
  (* single-node local transaction *)
  let c1 =
    Cluster.create
      ~config:
        { Config.default with Config.nodes = 1; replication_degree = 1; dir_replicas = 1 }
      ()
  in
  Cluster.populate c1 ~key:1 ~owner:0 (Value.of_int 0);
  let n1 = Cluster.node c1 0 in
  let t_local =
    Test.make ~name:"txn/local-write-commit"
      (Staged.stage (fun () ->
           Node.run_write n1 ~thread:0
             ~body:(fun ctx commit ->
               Node.read_write ctx 1
                 (fun v -> Value.of_int (Value.to_int v + 1))
                 (fun _ -> commit ()))
             (fun _ -> ());
           drain c1))
  in
  (* 3-way replicated commit *)
  let c3 = Cluster.create () in
  Cluster.populate c3 ~key:1 ~owner:0 (Value.of_int 0);
  let n3 = Cluster.node c3 0 in
  let t_commit =
    Test.make ~name:"commit/3-way-reliable-commit"
      (Staged.stage (fun () ->
           Node.run_write n3 ~thread:0
             ~body:(fun ctx commit ->
               Node.read_write ctx 1
                 (fun v -> Value.of_int (Value.to_int v + 1))
                 (fun _ -> commit ()))
             (fun _ -> ());
           drain c3))
  in
  (* ownership ping-pong *)
  let cown = Cluster.create () in
  Cluster.populate cown ~key:7 ~owner:0 (Value.of_int 0);
  let flip = ref 1 in
  let t_own =
    Test.make ~name:"ownership/acquire-ping-pong"
      (Staged.stage (fun () ->
           Node.acquire_ownership (Cluster.node cown !flip) 7 (fun _ -> ());
           flip := (!flip + 1) mod 3;
           drain cown))
  in
  (* read-only transaction on a reader *)
  let t_ro =
    Test.make ~name:"txn/read-only-on-replica"
      (Staged.stage (fun () ->
           Node.run_read (Cluster.node c3 1) ~thread:0
             ~body:(fun ctx commit -> Node.read ctx 1 (fun _ -> commit ()))
             (fun _ -> ());
           drain c3))
  in
  (* hermes write *)
  let he = Zeus_sim.Engine.create () in
  let hf = Zeus_net.Fabric.create he ~nodes:3 Zeus_net.Fabric.default_config in
  let ht = Zeus_net.Transport.create hf in
  let replicas = [ 0; 1; 2 ] in
  let hs = List.map (fun n -> Zeus_lb.Hermes.create ~node:n ~replicas ht) replicas in
  List.iteri
    (fun i h ->
      Zeus_net.Transport.set_handler ht i (fun ~src payload ->
          ignore (Zeus_lb.Hermes.handle h ~src payload)))
    hs;
  let h0 = List.hd hs in
  let t_hermes =
    Test.make ~name:"lb/hermes-replicated-write"
      (Staged.stage (fun () ->
           Zeus_lb.Hermes.write h0 ~key:3 (Value.of_int 9) (fun () -> ());
           Zeus_sim.Engine.run he))
  in
  (* baseline distributed transaction *)
  let be = Zeus_baseline.Engine.create ~primary_of:(fun k -> k mod 3) () in
  let t_base =
    Test.make ~name:"baseline/occ-2pc-txn"
      (Staged.stage (fun () ->
           Zeus_baseline.Engine.submit be ~home:0
             (Zeus_workload.Spec.write_txn [ 1; 2 ])
             (fun _ -> ());
           Zeus_sim.Engine.run (Zeus_baseline.Engine.engine be)))
  in
  [ t_rng; t_fabric; t_local; t_commit; t_own; t_ro; t_hermes; t_base ]

let run () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"zeus" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n== microbenchmarks (ns per simulated operation) ==\n";
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> Printf.printf "  %-44s %12.1f\n" name est
      | Some [] | None -> Printf.printf "  %-44s %12s\n" name "n/a")
    (List.sort compare rows);
  Printf.printf "%!"
