(* Integration tests: whole-cluster runs mixing workloads, network fault
   injection and crash-stop failures, checked against the paper's
   invariants and the serializability history checker. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module History = Zeus_core.History
module Value = Zeus_store.Value
module W = Zeus_workload

let tc = Helpers.tc
let check = Alcotest.check

(* Fault injection goes through a declarative chaos schedule (printable and
   replayable), not hand-rolled engine callbacks. *)
let crash_at c ~at_us node =
  let module S = Zeus_chaos.Schedule in
  ignore
    (Zeus_chaos.Nemesis.attach c
       (S.v
          ~name:(Printf.sprintf "crash-n%d" node)
          [ { S.at_us; fault = S.Crash node } ]))

let mixed_workload_setup ?(nodes = 3) ?(keys = 40) ?fabric ?(seed = 42L) () =
  let c = Helpers.default_cluster ~nodes ?fabric ~seed () in
  for k = 0 to keys - 1 do
    Cluster.populate c ~key:k ~owner:(k mod nodes) (Value.of_int 0)
  done;
  c

let drive c ~keys ~txns_per_thread ~threads =
  let n = Cluster.nodes c in
  let engine = Cluster.engine c in
  let rng = Engine.fork_rng engine in
  let completed = ref 0 in
  for home = 0 to n - 1 do
    for thread = 0 to threads - 1 do
      let node = Cluster.node c home in
      let rec loop i =
        if i < txns_per_thread && Node.is_alive node then begin
          let ro = Zeus_sim.Rng.chance rng 0.3 in
          let key () = Zeus_sim.Rng.int rng keys in
          let spec =
            if ro then W.Spec.read_txn [ key () ]
            else if Zeus_sim.Rng.chance rng 0.5 then W.Spec.write_txn [ key () ]
            else W.Spec.write_txn [ key (); key () ]
          in
          W.Spec.run_on_zeus node ~thread spec (fun _ ->
              incr completed;
              loop (i + 1))
        end
      in
      ignore
        (Engine.schedule engine
           ~after:(0.1 *. float_of_int ((home * threads) + thread))
           (fun () -> loop 0))
    done
  done;
  completed

let healthy_cluster_serializable () =
  let c = mixed_workload_setup () in
  let completed = drive c ~keys:40 ~txns_per_thread:30 ~threads:4 in
  Helpers.drain c ~max_us:2_000_000.0;
  check Alcotest.bool "made progress" true (!completed > 200);
  Helpers.expect_invariants c

let contended_hot_keys () =
  (* every node hammers the same three keys: heavy ownership migration *)
  let c = mixed_workload_setup ~keys:3 () in
  let completed = drive c ~keys:3 ~txns_per_thread:25 ~threads:3 in
  Helpers.drain c ~max_us:5_000_000.0;
  check Alcotest.bool "made progress" true (!completed > 100);
  Helpers.expect_invariants c

let lossy_network () =
  let fabric =
    {
      Zeus_net.Fabric.default_config with
      Zeus_net.Fabric.loss_prob = 0.05;
      dup_prob = 0.05;
      delay_prob = 0.3;
      delay_extra_us = 20.0;
    }
  in
  let c = mixed_workload_setup ~fabric () in
  let completed = drive c ~keys:40 ~txns_per_thread:20 ~threads:3 in
  Helpers.drain c ~max_us:5_000_000.0;
  check Alcotest.bool "progress despite faults" true (!completed > 100);
  Helpers.expect_invariants c

let crash_during_load () =
  let c = mixed_workload_setup ~keys:30 () in
  let completed = drive c ~keys:30 ~txns_per_thread:40 ~threads:3 in
  crash_at c ~at_us:120.0 2;
  Helpers.drain c ~max_us:5_000_000.0;
  check Alcotest.bool "survivors progressed" true (!completed > 100);
  Helpers.expect_invariants c

let crash_directory_member_during_load () =
  let c = mixed_workload_setup ~nodes:4 ~keys:30 () in
  let completed = drive c ~keys:30 ~txns_per_thread:30 ~threads:3 in
  crash_at c ~at_us:150.0 0;
  Helpers.drain c ~max_us:5_000_000.0;
  check Alcotest.bool "progress after directory loss" true (!completed > 80);
  Helpers.expect_invariants c

let crash_and_lossy_combined () =
  let fabric =
    { Zeus_net.Fabric.default_config with Zeus_net.Fabric.loss_prob = 0.03; dup_prob = 0.03 }
  in
  let c = mixed_workload_setup ~fabric ~keys:25 ~seed:99L () in
  let completed = drive c ~keys:25 ~txns_per_thread:30 ~threads:3 in
  crash_at c ~at_us:200.0 1;
  Helpers.drain c ~max_us:8_000_000.0;
  check Alcotest.bool "progress" true (!completed > 50);
  Helpers.expect_invariants c

let reads_never_see_torn_transfers () =
  (* transfers conserve a total; read-only transactions at any replica must
     always see the invariant sum *)
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 500);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 500);
  let engine = Cluster.engine c in
  let rng = Engine.fork_rng engine in
  let bad = ref 0 and reads = ref 0 and writes = ref 0 in
  (* writer: transfers on node 0 *)
  let n0 = Cluster.node c 0 in
  let rec write_loop i =
    if i < 60 then begin
      let amount = 1 + Zeus_sim.Rng.int rng 10 in
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v - amount)) (fun _ ->
              Node.read_write ctx 2
                (fun v -> Value.of_int (Value.to_int v + amount))
                (fun _ -> commit ())))
        (fun o ->
          if o = Zeus_store.Txn.Committed then incr writes;
          write_loop (i + 1))
    end
  in
  ignore (Engine.schedule engine ~after:0.0 (fun () -> write_loop 0));
  (* readers on the two backups *)
  List.iter
    (fun reader ->
      let node = Cluster.node c reader in
      let rec read_loop i =
        if i < 80 then
          Node.run_read node ~thread:0
            ~exec_us:0.0 ~body:(fun ctx commit ->
              Node.read ctx 1 (fun a ->
                  Node.read ctx 2 (fun b ->
                      commit ();
                      incr reads;
                      if Value.to_int a + Value.to_int b <> 1000 then incr bad)))
            (fun _ -> read_loop (i + 1))
      in
      ignore (Engine.schedule engine ~after:0.5 (fun () -> read_loop 0)))
    [ 1; 2 ];
  Helpers.drain c ~max_us:2_000_000.0;
  check Alcotest.bool "writers ran" true (!writes > 30);
  check Alcotest.bool "readers ran" true (!reads > 30);
  check Alcotest.int "no torn snapshot ever observed" 0 !bad;
  Helpers.expect_invariants c

let migration_under_write_load () =
  (* objects keep being written on node 0 while node 1 bulk-migrates them *)
  let c = mixed_workload_setup ~keys:20 () in
  let engine = Cluster.engine c in
  let completed = drive c ~keys:20 ~txns_per_thread:30 ~threads:2 in
  let migrated = ref 0 in
  ignore
    (Engine.schedule engine ~after:50.0 (fun () ->
         let n1 = Cluster.node c 1 in
         let rec go k =
           if k < 20 then
             Node.acquire_ownership n1 k (fun _ ->
                 incr migrated;
                 go (k + 1))
         in
         go 0));
  Helpers.drain c ~max_us:5_000_000.0;
  check Alcotest.int "migration finished" 20 !migrated;
  check Alcotest.bool "load progressed" true (!completed > 60);
  Helpers.expect_invariants c

let history_checked_under_faults () =
  let c = mixed_workload_setup ~keys:15 ~seed:1234L () in
  let _ = drive c ~keys:15 ~txns_per_thread:25 ~threads:2 in
  crash_at c ~at_us:180.0 2;
  Helpers.drain c ~max_us:5_000_000.0;
  match Cluster.history c with
  | Some h ->
    check Alcotest.bool "non-trivial history" true (History.writes h > 50);
    (match History.check h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "history violation: %s" e)
  | None -> Alcotest.fail "history recording off"

let suite =
  [
    tc "healthy cluster: invariants + serializability" healthy_cluster_serializable;
    tc "hot-key ownership churn" contended_hot_keys;
    tc "lossy/duplicating/reordering network" lossy_network;
    tc "node crash during load" crash_during_load;
    tc "directory member crash during load" crash_directory_member_during_load;
    tc "crash + lossy network combined" crash_and_lossy_combined;
    tc "read-only snapshots never torn" reads_never_see_torn_transfers;
    tc "bulk migration under write load" migration_under_write_load;
    tc "history checker on faulty run" history_checked_under_faults;
  ]
