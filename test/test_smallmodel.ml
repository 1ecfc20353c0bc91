(* Small-model systematic exploration (the executable stand-in for the
   paper's TLA+ model checking, §8).

   One object, three-to-four nodes, two concurrent ownership requesters
   plus a concurrent writer — swept systematically over the cross product
   of crash target × crash time × network perturbation.  After every
   scenario the cluster must quiesce into a state satisfying all paper
   invariants, and if any node still owns the object it must be writable. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Fabric = Zeus_net.Fabric

let tc = Helpers.tc

type perturbation = Clean | Lossy | Duplicating | Reordering

let fabric_of = function
  | Clean -> Fabric.default_config
  | Lossy -> { Fabric.default_config with Fabric.loss_prob = 0.10 }
  | Duplicating -> { Fabric.default_config with Fabric.dup_prob = 0.15 }
  | Reordering ->
    { Fabric.default_config with Fabric.delay_prob = 0.5; delay_extra_us = 25.0 }

let pp_scenario ~crash ~crash_at ~pert ~seed =
  Printf.sprintf "crash=%s at=%.0f pert=%s seed=%Ld"
    (match crash with Some n -> string_of_int n | None -> "-")
    crash_at
    (match pert with
    | Clean -> "clean"
    | Lossy -> "lossy"
    | Duplicating -> "dup"
    | Reordering -> "reorder")
    seed

let run_scenario ~nodes ~crash ~crash_at ~pert ~seed =
  let config =
    {
      Config.default with
      Config.nodes;
      record_history = true;
      seed;
      fabric = fabric_of pert;
    }
  in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let engine = Cluster.engine c in
  (* two contending requesters *)
  ignore
    (Engine.schedule engine ~after:1.0 (fun () ->
         Node.acquire_ownership (Cluster.node c 1) 1 (fun _ -> ())));
  ignore
    (Engine.schedule engine ~after:1.5 (fun () ->
         Node.acquire_ownership (Cluster.node c 2) 1 (fun _ -> ())));
  (* a writer on the original owner *)
  ignore
    (Engine.schedule engine ~after:2.0 (fun () ->
         Node.run_write (Cluster.node c 0) ~thread:0
           ~exec_us:0.0 ~body:(fun ctx commit ->
             Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
                 commit ()))
           (fun _ -> ())));
  (match crash with
  | Some victim -> ignore (Engine.schedule engine ~after:crash_at (fun () -> Cluster.kill c victim))
  | None -> ());
  Helpers.drain c ~max_us:2_000_000.0;
  (match Cluster.check_invariants c with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "[%s] %s" (pp_scenario ~crash ~crash_at ~pert ~seed) msg);
  (* liveness: some live node must be able to take over and write *)
  let taker =
    List.find_opt
      (fun i -> Fabric.is_alive (Cluster.fabric c) i)
      [ 1; 2; 0 ]
  in
  match taker with
  | None -> ()
  | Some i ->
    let ok = ref false in
    Node.run_write (Cluster.node c i) ~thread:1
      ~exec_us:0.0 ~body:(fun ctx commit ->
        Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
            commit ()))
      (fun o -> ok := o = Zeus_store.Txn.Committed);
    Helpers.drain c ~max_us:2_000_000.0;
    if not !ok then
      Alcotest.failf "[%s] survivor cannot write"
        (pp_scenario ~crash ~crash_at ~pert ~seed)

let sweep ~nodes ~perts () =
  List.iter
    (fun pert ->
      List.iter
        (fun crash ->
          List.iter
            (fun crash_at ->
              List.iter
                (fun seed -> run_scenario ~nodes ~crash ~crash_at ~pert ~seed)
                [ 11L; 23L ])
            (match crash with None -> [ 0.0 ] | Some _ -> [ 3.0; 8.0; 15.0; 40.0 ]))
        [ None; Some 0; Some 1; Some 2 ])
    perts

let suite =
  [
    tc "3 nodes, clean network: all crash points" (sweep ~nodes:3 ~perts:[ Clean ]);
    tc "3 nodes, lossy network: all crash points" (sweep ~nodes:3 ~perts:[ Lossy ]);
    tc "3 nodes, duplicating network: all crash points"
      (sweep ~nodes:3 ~perts:[ Duplicating ]);
    tc "3 nodes, reordering network: all crash points"
      (sweep ~nodes:3 ~perts:[ Reordering ]);
    tc "4 nodes (non-replica requesters): all crash points"
      (sweep ~nodes:4 ~perts:[ Clean; Lossy ]);
  ]
