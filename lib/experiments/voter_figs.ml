(** Figures 10-12: the Voter experiments.

    Figure 10 measures bulk ownership migration: while every node serves a
    steady stream of votes, a block of (idle) voter objects is moved from
    node 0 to node 1 and later from node 1 to node 2 by ten migration
    worker threads per move.

    Figure 11 measures migration of {e hot} objects under load: one
    dedicated thread serves a popular contestant and her voter block; at
    fixed times the load balancer re-pins that traffic to the next node,
    and each first vote there drags the objects over through the ownership
    protocol (exactly the paper's "25k ownership requests per second on a
    single worker thread while the rest of the system runs 5.3 Mtps").

    Figure 12 reports the ownership-latency distribution of both runs. *)

module Engine = Zeus_sim.Engine
module Stats = Zeus_sim.Stats
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Own = Zeus_ownership
module Value = Zeus_store.Value
module W = Zeus_workload

type run_result = {
  timeline : (float * float) list;  (** (ms, Mtps) *)
  move_stats : (string * float) list;
  latency_mean : float;
  latency_p999 : float;
  cdf : (float * float) list;
}

let merge_latencies cluster nodes =
  let rng = Zeus_sim.Rng.create 3L in
  let merged = Stats.Samples.create rng in
  List.iter
    (fun i ->
      let s = Own.Agent.latency_samples (Node.ownership_agent (Cluster.node cluster i)) in
      Array.iter (fun v -> Stats.Samples.add merged v) (Stats.Samples.values s))
    nodes;
  merged

let background_votes cluster w ~threads ~stop ~ts =
  let nodes = Cluster.nodes cluster in
  let engine = Cluster.engine cluster in
  for home = 0 to nodes - 1 do
    for thread = 0 to threads - 1 do
      let node = Cluster.node cluster home in
      let rec loop () =
        if Engine.now engine < stop && Node.is_alive node then
          W.Spec.run_on_zeus node ~thread
            (W.Voter.gen w ~home ~thread ~threads)
            (fun outcome ->
              if outcome = Zeus_store.Txn.Committed then
                Stats.Timeseries.add ts ~time:(Engine.now engine) 1.0;
              loop ())
      in
      ignore
        (Engine.schedule engine ~after:(0.01 *. float_of_int ((home * threads) + thread)) loop)
    done
  done

(* ---------- Figure 10: bulk migration ------------------------------------ *)

let fig10_run ~quick =
  let block = if quick then 1_000 else 5_000 in
  let voters = if quick then 3_000 else 24_000 in
  let phase_us = if quick then 6_000.0 else 25_000.0 in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let engine = Cluster.engine cluster in
  let rng = Engine.fork_rng engine in
  let w = W.Voter.create ~contestants:20 ~voters ~nodes:3 rng in
  W.Voter.populate w cluster;
  (* The migrated block lives beyond the active keyspace, owned by node 0. *)
  let base = W.Voter.total_keys w in
  Cluster.populate_n cluster ~n:block ~base ~owner_of:(fun _ -> 0)
    (fun _ -> Bytes.copy W.Voter.initial_value);
  let ts = Stats.Timeseries.create ~bucket:(phase_us /. 10.0) in
  let stop = 3.2 *. phase_us in
  (* The paper's vote load is a fixed offered rate well below saturation
     (4 Mtps); four closed-loop threads per node approximate that without
     saturating the datastore workers. *)
  background_votes cluster w ~threads:(min 4 config.Config.app_threads) ~stop ~ts;
  (* Bulk move: ten migration worker threads sweep the block. *)
  let move_done = Hashtbl.create 4 in
  let start_move ~at ~dst_node tag =
    let migration_threads = 10 in
    let per = (block + migration_threads - 1) / migration_threads in
    let remaining = ref migration_threads in
    ignore
      (Engine.schedule engine ~after:at (fun () ->
           let started = Engine.now engine in
           for m = 0 to migration_threads - 1 do
             let lo = base + (m * per) and hi = min (base + block) (base + ((m + 1) * per)) in
             let dst = Cluster.node cluster dst_node in
             let rec migrate key =
               if key >= hi then begin
                 decr remaining;
                 if !remaining = 0 then
                   Hashtbl.replace move_done tag (Engine.now engine -. started)
               end
               else
                 Node.acquire_ownership dst key (fun _ -> migrate (key + 1))
             in
             migrate lo
           done))
  in
  start_move ~at:phase_us ~dst_node:1 "move 0->1";
  start_move ~at:(2.0 *. phase_us) ~dst_node:2 "move 1->2";
  Cluster.run cluster ~until_us:stop;
  let lat = merge_latencies cluster [ 1; 2 ] in
  let moves =
    Hashtbl.fold
      (fun tag dur acc ->
        (tag ^ " duration (ms)", dur /. 1_000.0)
        :: ( tag ^ " objs/s per thread",
             float_of_int block /. 10.0 /. dur *. 1e6 )
        :: acc)
      move_done []
  in
  {
    timeline =
      List.map (fun (t, r) -> (t /. 1_000.0, r)) (Stats.Timeseries.rate ts);
    move_stats = moves;
    latency_mean = Stats.Samples.mean lat;
    latency_p999 = Stats.Samples.percentile lat 99.9;
    cdf = Stats.Samples.cdf lat ~points:12;
  }

(* ---------- Figure 11: hot objects under load ----------------------------- *)

let fig11_run ~quick =
  let hot_block = if quick then 300 else 1_500 in
  let voters = if quick then 3_000 else 24_000 in
  let phase_us = if quick then 8_000.0 else 30_000.0 in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let engine = Cluster.engine cluster in
  let rng = Engine.fork_rng engine in
  let w = W.Voter.create ~contestants:20 ~voters ~nodes:3 rng in
  W.Voter.populate w cluster;
  (* Hot contestant object + her dedicated voters, initially on node 0. *)
  let base = W.Voter.total_keys w in
  let hot_contestant = base in
  Cluster.populate_n cluster ~n:(hot_block + 1) ~base ~owner_of:(fun _ -> 0)
    (fun _ -> Bytes.copy W.Voter.initial_value);
  let ts = Stats.Timeseries.create ~bucket:(phase_us /. 10.0) in
  let stop = 4.2 *. phase_us in
  (* Background: ~5.3 Mtps aggregate in the paper — four closed-loop
     threads per node, below saturation. *)
  background_votes cluster w ~threads:(min 4 (config.Config.app_threads - 1)) ~stop ~ts;
  (* The dedicated hot-contestant thread: sweeps her voters round-robin on
     whichever node the load balancer currently pins her to. *)
  let hot_loc = ref 0 in
  let hot_thread = config.Config.app_threads - 1 in
  let rec hot_vote seq =
    if Engine.now engine < stop then begin
      let node = Cluster.node cluster !hot_loc in
      let voter = base + 1 + (seq mod hot_block) in
      Node.run_write node ~thread:hot_thread ~exec_us:0.5
        ~body:(fun ctx commit ->
          Node.read_write ctx hot_contestant
            (fun v -> Value.padded [ Value.to_int v + 1 ] ~size:32)
            (fun _ ->
              Node.read_write ctx voter
                (fun v -> Value.padded [ Value.to_int v + 1 ] ~size:32)
                (fun _ -> commit ())))
        (fun outcome ->
          if outcome = Zeus_store.Txn.Committed then
            Stats.Timeseries.add ts ~time:(Engine.now engine) 1.0;
          hot_vote (seq + 1))
    end
  in
  ignore (Engine.schedule engine ~after:1.0 (fun () -> hot_vote 0));
  List.iteri
    (fun i dst ->
      ignore
        (Engine.schedule engine
           ~after:(float_of_int (i + 1) *. phase_us)
           (fun () -> hot_loc := dst)))
    [ 1; 2; 0 ];
  Cluster.run cluster ~until_us:stop;
  let lat = merge_latencies cluster [ 0; 1; 2 ] in
  let won =
    List.fold_left
      (fun acc i ->
        acc + Own.Agent.requests_won (Node.ownership_agent (Cluster.node cluster i)))
      0 [ 0; 1; 2 ]
  in
  {
    timeline =
      List.map (fun (t, r) -> (t /. 1_000.0, r)) (Stats.Timeseries.rate ts);
    move_stats =
      [
        ("hot objects per move", float_of_int (hot_block + 1));
        ("total ownership transfers", float_of_int won);
      ];
    latency_mean = Stats.Samples.mean lat;
    latency_p999 = Stats.Samples.percentile lat 99.9;
    cdf = Stats.Samples.cdf lat ~points:12;
  }

(* ---------- printers ------------------------------------------------------- *)

let print_run id title paper (r : run_result) =
  Exp.print_figure
    {
      Exp.id;
      title;
      x_axis = "time (ms)";
      y_axis = "Mtps";
      series = [ { Exp.label = "total committed votes"; points = r.timeline } ];
      paper;
      notes =
        List.map (fun (k, v) -> Printf.sprintf "%s = %.1f" k v) r.move_stats;
    }

let run ~quick =
  let r10 = fig10_run ~quick in
  print_run "fig10" "Voter: moving a block of objects across nodes"
    [
      "full move of 1M objects takes 4s with 10 threads = 25k objs/s per thread";
      "vote throughput steady while moving";
    ]
    r10;
  let r11 = fig11_run ~quick in
  print_run "fig11" "Voter: moving hot objects while registering votes"
    [
      "single worker thread still does 25k ownership requests/s";
      "rest of the system sustains ~5.3 Mtps concurrently";
    ]
    r11;
  Exp.print_figure
    {
      Exp.id = "fig12";
      title = "CDF of Zeus ownership request latency";
      x_axis = "latency (us)";
      y_axis = "cumulative fraction";
      series =
        [
          { Exp.label = "bulk move (fig10 run)"; points = r10.cdf };
          { Exp.label = "hot objects under load (fig11 run)"; points = r11.cdf };
        ];
      paper =
        [
          "bulk move: mean 17us, 99.9p 36us";
          "hot objects under load: mean 29us, 99.9p 83us";
        ];
      notes =
        [
          Printf.sprintf "measured bulk: mean %.1fus, 99.9p %.1fus" r10.latency_mean
            r10.latency_p999;
          Printf.sprintf "measured hot: mean %.1fus, 99.9p %.1fus" r11.latency_mean
            r11.latency_p999;
        ];
    }
