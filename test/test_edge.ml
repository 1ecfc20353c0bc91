(* Additional edge cases across the stack. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Table = Zeus_store.Table
module Fabric = Zeus_net.Fabric

let tc = Helpers.tc
let check = Alcotest.check

(* Determinism: the same seed must produce the exact same event count and
   committed count — the property every debugging session depends on. *)
let simulation_deterministic () =
  let run () =
    let c = Helpers.default_cluster ~seed:77L () in
    for k = 0 to 9 do
      Cluster.populate c ~key:k ~owner:(k mod 3) (Value.of_int 0)
    done;
    let engine = Cluster.engine c in
    for n = 0 to 2 do
      let node = Cluster.node c n in
      let rec chain i =
        if i < 15 then
          Node.run_write node ~thread:0
            ~exec_us:0.0 ~body:(fun ctx commit ->
              Node.read_write ctx (i mod 10)
                (fun v -> Value.of_int (Value.to_int v + 1))
                (fun _ -> commit ()))
            (fun _ -> chain (i + 1))
      in
      ignore (Engine.schedule engine ~after:(float_of_int n) (fun () -> chain 0))
    done;
    Helpers.drain c;
    (Engine.events_dispatched engine, Cluster.total_committed c)
  in
  let a = run () and b = run () in
  check Alcotest.(pair int int) "identical runs" a b

(* Replication degree 1: commits are durable immediately, no messages. *)
let degree_one_no_replication () =
  let config =
    { Config.default with Config.nodes = 3; replication_degree = 1 }
  in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Helpers.drain c;
  let before = Fabric.messages_sent (Cluster.fabric c) in
  Helpers.expect_committed "w" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 1));
  check Alcotest.int "no replication traffic" before
    (Fabric.messages_sent (Cluster.fabric c));
  match Helpers.obj_at c 0 1 with
  | Some o ->
    check Alcotest.bool "immediately valid" true
      (o.Zeus_store.Obj.t_state = Zeus_store.Types.T_valid)
  | None -> Alcotest.fail "object missing"

(* auto_trim off: a non-replica acquire leaves the grown replica set. *)
let no_trim_keeps_extra_replica () =
  let config =
    {
      Config.default with
      Config.nodes = 4;
      replication_degree = 2;
      auto_trim = false;
    }
  in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  let r = ref None in
  Node.acquire_ownership (Cluster.node c 3) 1 (fun x -> r := Some x);
  Helpers.drain c;
  (match !r with Some (Ok ()) -> () | _ -> Alcotest.fail "acquire");
  let holders =
    List.filter (fun i -> Table.mem (Node.table (Cluster.node c i)) 1) [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "replica set grew and stayed" 3 (List.length holders)

(* A demoted owner still serves consistent read-only transactions. *)
let demoted_owner_serves_reads () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 9);
  Helpers.expect_committed "remote write moves ownership"
    (Helpers.write_txn c 2 ~keys:[ 1 ] ~value:(Value.of_int 10));
  check Alcotest.string "demoted" "reader"
    (Helpers.role_name (Node.role (Cluster.node c 0) 1));
  check Alcotest.(option int) "reads newest value" (Some 10) (Helpers.read_value c 0 1)

(* Write transactions read a consistent snapshot even when they abort
   (opacity, §6.2): an aborting transaction never observes two keys mid
   another transaction's update. *)
let opacity_under_conflicts () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 100);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 100);
  let n0 = Cluster.node c 0 in
  let engine = Cluster.engine c in
  let torn = ref 0 in
  (* transfers on thread 0 *)
  let rec xfer i =
    if i < 30 then
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v - 1)) (fun _ ->
              Node.read_write ctx 2 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
                  commit ())))
        (fun _ -> xfer (i + 1))
  in
  ignore (Engine.schedule engine ~after:0.0 (fun () -> xfer 0));
  (* write transactions on thread 1 reading both keys (they conflict and
     often retry; every successful read pair must sum to 200) *)
  let rec audit i =
    if i < 30 then
      Node.run_write n0 ~thread:1
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read ctx 1 (fun a ->
              Node.read ctx 2 (fun b ->
                  if Value.to_int a + Value.to_int b <> 200 then incr torn;
                  commit ())))
        (fun _ -> audit (i + 1))
  in
  ignore (Engine.schedule engine ~after:0.3 (fun () -> audit 0));
  Helpers.drain c;
  check Alcotest.int "no torn snapshot inside write txns" 0 !torn

(* Ownership of a freshly freed key is refused (directory forgets it). *)
let freed_key_unknown () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Node.run_write (Cluster.node c 0) ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit -> Node.delete ctx 1 (fun () -> commit ()))
    (fun o -> Helpers.expect_committed "delete" o);
  Helpers.drain c;
  let r = ref None in
  Node.acquire_ownership (Cluster.node c 1) 1 (fun x -> r := Some x);
  Helpers.drain c;
  match !r with
  | Some (Error _) -> ()
  | Some (Ok ()) -> Alcotest.fail "acquired a freed object"
  | None -> Alcotest.fail "hung"

(* A rejoined node participates again (fresh epoch). *)
let rejoin_and_write () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.kill c 2;
  Helpers.drain c;
  Helpers.expect_committed "write while down"
    (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 1));
  Cluster.rejoin c 2;
  Helpers.drain c;
  (* the rejoined node can acquire ownership and write *)
  Helpers.expect_committed "write from rejoined node"
    (Helpers.write_txn c 2 ~keys:[ 1 ] ~value:(Value.of_int 2));
  Helpers.expect_invariants c

(* Back-to-back migrations interleaved with writes at every stop. *)
let migrate_write_cycle () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  for round = 1 to 6 do
    let dst = round mod 3 in
    Helpers.expect_committed "write at new home"
      (Helpers.write_txn c dst ~keys:[ 1 ] ~value:(Value.of_int round))
  done;
  List.iter
    (fun n ->
      check Alcotest.(option int) "converged" (Some 6) (Helpers.read_value c n 1))
    [ 0; 1; 2 ];
  Helpers.expect_invariants c

(* Six-node deployment: directory is a strict subset of the nodes. *)
let six_nodes_directory_subset () =
  let config = { Config.default with Config.nodes = 6 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:4 (Value.of_int 5);
  (* node 5 is neither a directory replica nor (initially) a replica *)
  Helpers.expect_committed "far corner write"
    (Helpers.write_txn c 5 ~keys:[ 1 ] ~value:(Value.of_int 6));
  check Alcotest.string "owner" "owner"
    (Helpers.role_name (Node.role (Cluster.node c 5) 1));
  Helpers.expect_invariants c

(* Values larger than one MTU still replicate correctly. *)
let large_values_replicate () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.padded [ 0 ] ~size:16_384);
  let big = Value.padded [ 4242 ] ~size:16_384 in
  Helpers.expect_committed "big write" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:big);
  (match Helpers.obj_at c 1 1 with
  | Some o ->
    check Alcotest.int "size preserved" 16_384 (Value.size o.Zeus_store.Obj.data);
    check Alcotest.int "content" 4242 (Value.to_int o.Zeus_store.Obj.data)
  | None -> Alcotest.fail "replica missing");
  Helpers.expect_invariants c

let suite =
  [
    tc "simulation is deterministic per seed" simulation_deterministic;
    tc "replication degree 1: immediate durability" degree_one_no_replication;
    tc "auto_trim off keeps grown replica set" no_trim_keeps_extra_replica;
    tc "demoted owner serves consistent reads" demoted_owner_serves_reads;
    tc "opacity: write txns never see torn state (§6.2)" opacity_under_conflicts;
    tc "freed keys cannot be re-acquired" freed_key_unknown;
    tc "rejoin: node participates in a new epoch" rejoin_and_write;
    tc "migrate-write cycles converge" migrate_write_cycle;
    tc "six nodes: non-directory non-replica writer" six_nodes_directory_subset;
    tc "large values replicate" large_values_replicate;
  ]
