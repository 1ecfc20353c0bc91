(* Fault-tolerance demo (§4.1, §5.1).

   Node 0 owns a set of objects and commits a burst of pipelined
   transactions; we crash it while R-INVs are still in flight.  The
   surviving followers replay the pending reliable commits, the membership
   service installs a new epoch, the directory un-gates the orphaned
   objects, and the survivors take over ownership — no committed update is
   lost and all replicas agree. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Table = Zeus_store.Table

let keys = [ 1; 2; 3; 4 ]

let dump cluster label =
  Printf.printf "%s\n" label;
  List.iter
    (fun key ->
      Printf.printf "  key %d:" key;
      List.iter
        (fun n ->
          let o = Table.find (Node.table (Cluster.node cluster n)) key in
          if o == Zeus_store.Obj.dummy then Printf.printf "  n%d=-" n
          else
            Printf.printf "  n%d=%d(v%d,%s)" n
              (Value.to_int o.Zeus_store.Obj.data)
              o.Zeus_store.Obj.t_version
              (Format.asprintf "%a" Zeus_store.Types.pp_t_state o.Zeus_store.Obj.t_state))
        [ 0; 1; 2 ];
      print_newline ())
    keys

let () =
  let config = { Config.default with Config.nodes = 3; record_history = true } in
  let cluster = Cluster.create ~config () in
  let engine = Cluster.engine cluster in
  List.iter (fun k -> Cluster.populate cluster ~key:k ~owner:0 (Value.of_int 0)) keys;

  (* a burst of pipelined increments on node 0 *)
  let committed = ref 0 in
  let n0 = Cluster.node cluster 0 in
  let rec burst i =
    if i < 40 then begin
      let key = List.nth keys (i mod List.length keys) in
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx key (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
              commit ()))
        (fun o ->
          if o = Zeus_store.Txn.Committed then incr committed;
          burst (i + 1))
    end
  in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> burst 0));

  (* crash the coordinator mid-burst, replication still in flight *)
  ignore
    (Engine.schedule engine ~after:12.0 (fun () ->
         Printf.printf "[t=%.1f us] CRASH node 0 (coordinator, %d local commits so far)\n"
           (Engine.now engine) !committed;
         Cluster.kill cluster 0));

  Cluster.run_quiesce cluster ~max_us:100_000.0 ();
  dump cluster "-- after recovery (survivors replayed pending commits):";

  (* survivors agree? *)
  let agree =
    List.for_all
      (fun key ->
        let v n =
          let o = Table.find (Node.table (Cluster.node cluster n)) key in
          if o == Zeus_store.Obj.dummy then None
          else Some (Value.to_int o.Zeus_store.Obj.data, o.Zeus_store.Obj.t_version)
        in
        v 1 = v 2)
      keys
  in
  Printf.printf "survivors agree on every key: %b\n" agree;

  (* survivors take over ownership and continue *)
  Printf.printf "-- node 1 takes over and keeps writing:\n";
  let ok = ref 0 in
  List.iter
    (fun key ->
      Node.run_write (Cluster.node cluster 1) ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx key (fun v -> Value.of_int (Value.to_int v + 100)) (fun _ ->
              commit ()))
        (fun o -> if o = Zeus_store.Txn.Committed then incr ok);
      Cluster.run_quiesce cluster ~max_us:100_000.0 ())
    keys;
  Printf.printf "post-crash writes committed: %d/%d\n" !ok (List.length keys);
  dump cluster "-- final state:";
  match Cluster.check_invariants cluster with
  | Ok () -> Printf.printf "invariants hold\n"
  | Error m -> Printf.printf "INVARIANT VIOLATION: %s\n" m
