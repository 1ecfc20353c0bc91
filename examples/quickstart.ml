(* Quickstart: a 3-node Zeus deployment with 3-way replication.

   - populate two "bank account" objects on node 0;
   - run a local transfer transaction on node 0 (all accesses local);
   - run the same transfer from node 2: Zeus migrates ownership of both
     accounts to node 2 (1.5-RTT ownership requests), then commits locally;
   - run a consistent read-only transaction on a backup replica;
   - crash node 0 and keep transacting on node 2;
   - finish by checking the paper's invariants on the final state. *)

module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Config = Zeus_core.Config
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn

let alice = 1
let bob = 2

let transfer node ~thread ~amount k =
  Node.run_write node ~thread ~exec_us:1.0
    ~body:(fun ctx commit ->
      Node.read ctx alice (fun a ->
          Node.read ctx bob (fun b ->
              Node.write ctx alice (Value.of_int (Value.to_int a - amount)) (fun () ->
                  Node.write ctx bob (Value.of_int (Value.to_int b + amount)) (fun () ->
                      commit ())))))
    k

let balance_sum node ~thread k =
  Node.run_read node ~thread
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.read ctx alice (fun a ->
          Node.read ctx bob (fun b ->
              let sum = Value.to_int a + Value.to_int b in
              commit ();
              k sum)))
    (fun _ -> ())

let () =
  let config = { Config.default with Config.nodes = 3; record_history = true } in
  let cluster = Cluster.create ~config () in
  Cluster.populate cluster ~key:alice ~owner:0 (Value.of_int 100);
  Cluster.populate cluster ~key:bob ~owner:0 (Value.of_int 100);

  let n0 = Cluster.node cluster 0 and n2 = Cluster.node cluster 2 in

  Printf.printf "== local transaction on node 0 ==\n";
  transfer n0 ~thread:0 ~amount:10 (fun outcome ->
      Printf.printf "  transfer(10): %s\n"
        (match outcome with Txn.Committed -> "committed" | Txn.Aborted _ -> "aborted"));
  Cluster.run_quiesce cluster ~max_us:10_000.0 ();

  Printf.printf "== remote transaction on node 2 (triggers ownership) ==\n";
  transfer n2 ~thread:0 ~amount:25 (fun outcome ->
      Printf.printf "  transfer(25): %s\n"
        (match outcome with Txn.Committed -> "committed" | Txn.Aborted _ -> "aborted"));
  Cluster.run_quiesce cluster ~max_us:10_000.0 ();
  Printf.printf "  node2 now %s of 'alice'\n"
    (match Node.role n2 alice with
    | Some Zeus_store.Types.Owner -> "owner"
    | Some Zeus_store.Types.Reader -> "reader"
    | None -> "non-replica");

  Printf.printf "== read-only transaction on a backup (node 1) ==\n";
  balance_sum (Cluster.node cluster 1) ~thread:0 (fun sum ->
      Printf.printf "  alice + bob = %d (expected 200)\n" sum);
  Cluster.run_quiesce cluster ~max_us:10_000.0 ();

  Printf.printf "== crash node 0; node 2 keeps transacting ==\n";
  Cluster.kill cluster 0;
  Cluster.run_quiesce cluster ~max_us:20_000.0 ();
  transfer n2 ~thread:0 ~amount:5 (fun outcome ->
      Printf.printf "  transfer(5) after crash: %s\n"
        (match outcome with Txn.Committed -> "committed" | Txn.Aborted _ -> "aborted"));
  Cluster.run_quiesce cluster ~max_us:50_000.0 ();

  (match Cluster.check_invariants cluster with
  | Ok () -> Printf.printf "== invariants hold ==\n"
  | Error msg -> Printf.printf "== INVARIANT VIOLATION: %s ==\n" msg);
  Printf.printf "committed=%d aborted=%d ro=%d ownership requests won by n2=%d\n"
    (Cluster.total_committed cluster)
    (Cluster.total_aborted cluster)
    (Cluster.total_ro_committed cluster)
    (Zeus_ownership.Agent.requests_won (Node.ownership_agent n2));
  ignore n0
