(* Tests for the distributed (consistent-hashing) directory of §6.2. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

let tc = Helpers.tc
let check = Alcotest.check

let dist_config ?(nodes = 6) () =
  { Config.default with Config.nodes; distributed_directory = true }

let placement_properties () =
  let config = dist_config () in
  let sets = List.init 500 (fun key -> Config.dir_nodes_for config ~key) in
  List.iter
    (fun set ->
      check Alcotest.int "replica count" config.Config.dir_replicas (List.length set);
      check Alcotest.int "no duplicates" (List.length set)
        (List.length (List.sort_uniq compare set));
      List.iter
        (fun d -> if d < 0 || d >= 6 then Alcotest.failf "node %d out of range" d)
        set)
    sets;
  (* every node hosts directory state for some keys *)
  let hosts = Hashtbl.create 8 in
  List.iter (fun set -> List.iter (fun d -> Hashtbl.replace hosts d ()) set) sets;
  check Alcotest.int "all nodes participate" 6 (Hashtbl.length hosts);
  (* deterministic *)
  check Alcotest.(list int) "stable" (Config.dir_nodes_for config ~key:77)
    (Config.dir_nodes_for config ~key:77)

(* [dir_nodes_for] keeps the values of the plain [List.init] formulas, and
   the fixed directory hands out one shared list instead of a fresh one. *)
let placement_formula () =
  for nodes = 1 to 8 do
    for dir_replicas = 1 to 5 do
      let k = min dir_replicas nodes in
      let fixed = { Config.default with Config.nodes; dir_replicas } in
      let dist = { fixed with Config.distributed_directory = true } in
      for key = 0 to 99 do
        let label = Printf.sprintf "nodes=%d dir_replicas=%d key=%d" nodes dir_replicas key in
        check Alcotest.(list int) ("fixed " ^ label) (List.init k Fun.id)
          (Config.dir_nodes_for fixed ~key);
        let h = (key * 2654435761 land max_int) mod nodes in
        check Alcotest.(list int) ("distributed " ^ label)
          (List.init k (fun i -> (h + i) mod nodes))
          (Config.dir_nodes_for dist ~key)
      done;
      if Config.dir_nodes_for fixed ~key:0 != Config.dir_nodes_for fixed ~key:1 then
        Alcotest.failf "nodes=%d dir_replicas=%d: fixed directory list is rebuilt per call"
          nodes dir_replicas
    done
  done

let acquire_works () =
  let c = Cluster.create ~config:{ (dist_config ()) with Config.record_history = true } () in
  for k = 0 to 49 do
    Cluster.populate c ~key:k ~owner:(k mod 6) (Value.of_int k)
  done;
  (* every node steals a few keys homed elsewhere *)
  for k = 0 to 49 do
    let thief = (k + 3) mod 6 in
    Helpers.expect_committed "remote write"
      (Helpers.write_txn c thief ~keys:[ k ] ~value:(Value.of_int (k + 100)))
  done;
  Helpers.expect_invariants c

let mixed_load_with_crash () =
  let config = { (dist_config ()) with Config.record_history = true } in
  let c = Cluster.create ~config () in
  for k = 0 to 29 do
    Cluster.populate c ~key:k ~owner:(k mod 6) (Value.of_int 0)
  done;
  let engine = Cluster.engine c in
  let rng = Engine.fork_rng engine in
  for home = 0 to 5 do
    let node = Cluster.node c home in
    let rec chain i =
      if i < 25 && Node.is_alive node then
        Node.run_write node ~thread:0
          ~exec_us:0.0 ~body:(fun ctx commit ->
            Node.read_write ctx (Zeus_sim.Rng.int rng 30)
              (fun v -> Value.of_int (Value.to_int v + 1))
              (fun _ -> commit ()))
          (fun _ -> chain (i + 1))
    in
    ignore (Engine.schedule engine ~after:(float_of_int home) (fun () -> chain 0))
  done;
  ignore (Engine.schedule engine ~after:100.0 (fun () -> Cluster.kill c 4));
  Helpers.drain c ~max_us:5_000_000.0;
  Helpers.expect_invariants c

let directory_load_spreads () =
  (* low-locality traffic: with the single directory only 3 nodes drive
     requests; distributed, all 6 share the load *)
  let run distributed =
    let config =
      { Config.default with Config.nodes = 6; distributed_directory = distributed }
    in
    let c = Cluster.create ~config () in
    for k = 0 to 199 do
      Cluster.populate c ~key:k ~owner:(k mod 6) (Value.of_int 0)
    done;
    let engine = Cluster.engine c in
    for home = 0 to 5 do
      let node = Cluster.node c home in
      let rec chain i =
        if i < 40 then
          Node.run_write node ~thread:0
            ~exec_us:0.0 ~body:(fun ctx commit ->
              Node.read_write ctx (((home + 1) * 33 + i * 7) mod 200)
                (fun v -> Value.of_int (Value.to_int v + 1))
                (fun _ -> commit ()))
            (fun _ -> chain (i + 1))
      in
      ignore (Engine.schedule engine ~after:(float_of_int home) (fun () -> chain 0))
    done;
    Helpers.drain c ~max_us:5_000_000.0;
    List.map
      (fun i ->
        Zeus_ownership.Agent.requests_driven (Node.ownership_agent (Cluster.node c i)))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let single = run false and dist = run true in
  check Alcotest.int "single: non-directory nodes drive nothing" 0
    (List.nth single 3 + List.nth single 4 + List.nth single 5);
  let driving_nodes = List.length (List.filter (fun d -> d > 0) dist) in
  if driving_nodes < 5 then
    Alcotest.failf "distributed directory should spread drivers, got %d nodes"
      driving_nodes

let rejoin_with_distributed_directory () =
  let c = Cluster.create ~config:(dist_config ~nodes:4 ()) () in
  for k = 0 to 9 do
    Cluster.populate c ~key:k ~owner:(k mod 4) (Value.of_int 0)
  done;
  Cluster.kill c 2;
  Helpers.drain c;
  Helpers.expect_committed "write while down"
    (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 5));
  Cluster.rejoin c 2;
  Helpers.drain c;
  Helpers.expect_committed "write from rejoined node"
    (Helpers.write_txn c 2 ~keys:[ 1 ] ~value:(Value.of_int 6));
  Helpers.expect_invariants c

let suite =
  [
    tc "placement: hashed, balanced, deterministic" placement_properties;
    tc "placement: values match the formula, fixed list shared" placement_formula;
    tc "ownership works across hashed directories" acquire_works;
    tc "mixed load + crash under distributed directory" mixed_load_with_crash;
    tc "directory driver load spreads (§6.2)" directory_load_spreads;
    tc "rejoin under distributed directory" rejoin_with_distributed_directory;
  ]
