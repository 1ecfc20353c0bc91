(* Popularity-shift demo (§2.2, §8.4).

   A contestant becomes hot on node 0.  Zeus moves her object (and her
   voters' history objects) to a less-loaded node while votes keep
   flowing; the ownership protocol does the move in 1.5-RTT steps without
   ever stopping transaction processing. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

let contestant = 0
let voters = 500
let voter v = 1 + v

let () =
  let cluster = Cluster.create ~config:{ Config.default with Config.nodes = 3 } () in
  let engine = Cluster.engine cluster in
  let rng = Engine.fork_rng engine in
  Cluster.populate cluster ~key:contestant ~owner:0 (Value.of_int 0);
  for v = 0 to voters - 1 do
    Cluster.populate cluster ~key:(voter v) ~owner:0 (Value.of_int 0)
  done;

  (* Hot traffic: one dedicated thread votes continuously at wherever the
     load balancer pins the contestant. *)
  let hot_loc = ref 0 in
  let votes = ref 0 in
  let stop = 30_000.0 in
  let rec vote seq =
    if Engine.now engine < stop then
      Node.run_write (Cluster.node cluster !hot_loc) ~thread:0 ~exec_us:0.5
        ~body:(fun ctx commit ->
          Node.read_write ctx contestant
            (fun v -> Value.of_int (Value.to_int v + 1))
            (fun _ ->
              Node.read_write ctx (voter (Zeus_sim.Rng.int rng voters))
                (fun v -> Value.of_int (Value.to_int v + 1))
                (fun _ -> commit ())))
        (fun outcome ->
          if outcome = Zeus_store.Txn.Committed then incr votes;
          vote (seq + 1))
  in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> vote 0));

  (* At t = 10 ms the operator re-pins the hot contestant to node 1: the
     first vote for each object there acquires its ownership. *)
  ignore
    (Engine.schedule engine ~after:10_000.0 (fun () ->
         Printf.printf "[%5.1f ms] load balancer re-pins hot traffic to node 1\n"
           (Engine.now engine /. 1_000.0);
         hot_loc := 1));

  (* progress reports *)
  let rec report () =
    if Engine.now engine < stop then begin
      let n1 = Cluster.node cluster 1 in
      Printf.printf
        "[%5.1f ms] votes=%6d  ownership transfers to node 1 so far: %5d\n"
        (Engine.now engine /. 1_000.0)
        !votes
        (Zeus_ownership.Agent.requests_won (Node.ownership_agent n1));
      ignore (Engine.schedule engine ~after:5_000.0 report)
    end
  in
  ignore (Engine.schedule engine ~after:5_000.0 report);

  Cluster.run cluster ~until_us:(stop +. 5_000.0);
  Printf.printf "total committed votes: %d\n" !votes;
  Printf.printf "contestant total: %d (must equal committed votes)\n"
    (let o = Zeus_store.Table.find (Node.table (Cluster.node cluster 1)) contestant in
     if o == Zeus_store.Obj.dummy then -1 else Value.to_int o.Zeus_store.Obj.data);
  match Cluster.check_invariants cluster with
  | Ok () -> Printf.printf "invariants hold\n"
  | Error m -> Printf.printf "INVARIANT VIOLATION: %s\n" m
