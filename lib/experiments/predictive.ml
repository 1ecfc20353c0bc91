(** Reactive vs predictive ownership placement (the locality engine).

    Three scenarios, each run once with the engine disabled (the paper's
    reactive placement — the seed behaviour) and once enabled:

    - {e trajectory}: the handover pattern of §2.1 driven end-to-end — mobile
      users hop node → node+1, dwelling for a burst of writes and then
      travelling (an access gap) before reappearing at the next node.  The
      directional predictor should prefetch each user's state into the next
      node during the travel gap, so the first transaction after a handover
      finds it local;
    - {e skew}: a small set of hot objects each fought over by two nodes
      (cross-frontend sessions).  Reactive placement ping-pongs them on
      every write; the planner should detect the thrash, pin each key, and
      the pin re-routes the fighting transactions to the pin target;
    - {e uniform}: perfectly partitioned local traffic — the engine has
      nothing to improve and must not regress tail latency.

    The rerouted execution in the skew scenario models the balancer
    forwarding the request to the pin target; the forwarding hop itself is
    not charged (it is identical in both arms' request paths). *)

module Engine = Zeus_sim.Engine
module Rng = Zeus_sim.Rng
module Metrics = Zeus_telemetry.Metrics
module Tlog = Zeus_telemetry.Tlog
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn
module Loc = Zeus_locality
module W = Zeus_workload

type arm = {
  committed : int;
  remote : int;      (** committed write txns that needed an ownership request *)
  p50 : float;
  p99 : float;
  hits : int;        (** prefetched keys touched by a local txn while owned *)
  misses : int;      (** prefetched keys lost before any local access *)
  hints : int;
  pins : int;
  reassigns : int;
}

type results = { quick : bool; trajectory : arm * arm; skew : arm * arm; uniform : arm * arm }

let remote_fraction a =
  if a.committed = 0 then 0.0 else float_of_int a.remote /. float_of_int a.committed

let hit_rate a =
  if a.hits + a.misses = 0 then 0.0
  else float_of_int a.hits /. float_of_int (a.hits + a.misses)

(* Experiment-tuned engine: shorter post-move cooldown than the default (a
   handover dwell is only a few hundred µs here) and a prefetch budget sized
   to the handover rate — the conservative library default is for workloads
   where speculation is a side dish, not the point. *)
let tuned ~bucket ~refill_per_ms =
  {
    Loc.Engine.enabled_default with
    Loc.Engine.planner = { Loc.Planner.cooldown_us = 120.0 };
    migrator = { Loc.Migrator.bucket; refill_per_ms };
  }

(* Engine counters summed over nodes; pins from node 0's planner (every
   directory node observes the same migration stream, so each planner
   reaches the same pin — summing would multiple-count one decision). *)
let loc_stats c =
  let hits = ref 0 and misses = ref 0 and hints = ref 0 in
  for i = 0 to Cluster.nodes c - 1 do
    match Node.locality (Cluster.node c i) with
    | None -> ()
    | Some e ->
      hits := !hits + Loc.Engine.prefetch_hits e;
      misses := !misses + Loc.Engine.prefetch_misses e;
      hints := !hints + Loc.Engine.hints_sent e
  done;
  let pins =
    match Node.locality (Cluster.node c 0) with
    | Some e -> Loc.Planner.pins_set (Loc.Engine.planner e)
    | None -> 0
  in
  (!hits, !misses, !hints, pins)

let incr_body ctx key commit =
  Node.read_write ctx key (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ -> commit ())

(* ---------- trajectory (handover) ---------- *)

(* Returns the cluster too: the predictive arm's hub feeds the per-phase
   table. *)
let run_trajectory ~quick ~predictive =
  let nodes = 4 and users_per_node = 6 in
  let interval = 30.0 and accesses = 6 and gap = 150.0 in
  let warmup = if quick then 1_200.0 else 2_000.0 in
  let duration = if quick then 2_400.0 else 8_000.0 in
  let locality =
    if predictive then tuned ~bucket:32.0 ~refill_per_ms:150.0
    else Loc.Engine.default_config
  in
  (* auto_trim off (both arms): a handover to the one non-replica node
     triggers a trim whose Remove_reader arbitration leaves the fresh
     owner's copy out of O_valid, wedging the session object — a protocol
     defect unrelated to placement policy (ROADMAP.md,
     strict-serializability item, "Trims"). *)
  let config = { Config.default with Config.nodes; seed = 11L; auto_trim = false; locality } in
  let c = Cluster.create ~config () in
  let eng = Cluster.engine c in
  let users = nodes * users_per_node in
  (* one session object per user, starting at the user's first cell *)
  Cluster.populate_n c ~n:users ~owner_of:(fun u -> u mod nodes) (fun _ -> Value.of_int 0);
  let start = warmup and stop = warmup +. duration in
  let committed = ref 0 in
  let lat = Metrics.Histogram.create "predictive.latency_us" in
  (* Open-loop per user: [accesses] writes spaced [interval] apart at the
     current cell, then a travel gap, then the next cell.  Users sharing a
     start cell are staggered by cohort so each (cell, thread) pair hosts at
     most one user at a time. *)
  let rec dwell u at_node writes_done =
    if writes_done >= accesses then
      ignore
        (Engine.schedule eng ~after:gap (fun () -> dwell u ((at_node + 1) mod nodes) 0))
    else begin
      let node = Cluster.node c at_node in
      let t0 = Engine.now eng in
      Node.run_write node ~thread:(u / nodes)
        ~exec_us:0.0 ~body:(fun ctx commit -> incr_body ctx u commit)
        (fun outcome ->
          let now = Engine.now eng in
          (match outcome with
          | Txn.Committed when now >= start && now < stop ->
            incr committed;
            Metrics.Histogram.observe lat (now -. t0)
          | _ -> ());
          ignore (Engine.schedule eng ~after:interval (fun () -> dwell u at_node (writes_done + 1))))
    end
  in
  for u = 0 to users - 1 do
    ignore
      (Engine.schedule eng
         ~after:(7.0 *. float_of_int (u / nodes))
         (fun () -> dwell u (u mod nodes) 0))
  done;
  let own0 = ref 0 in
  ignore (Engine.schedule_at eng ~time:start (fun () -> own0 := Exp.txns_with_ownership c));
  Cluster.run c ~until_us:stop;
  let remote = Exp.txns_with_ownership c - !own0 in
  if Tlog.enabled Tlog.Debug then begin
    for i = 0 to nodes - 1 do
      let n = Cluster.node c i in
      Tlog.debugf ~src:"predictive"
        "[traj] node %d: committed=%d aborted=%d retries=%d own_txns=%d" i
        (Node.committed n) (Node.aborted n) (Node.retries n)
        (Node.txns_with_ownership n);
      match Node.locality n with
      | Some e ->
        List.iter
          (fun (k, v) -> Tlog.debugf ~src:"predictive" "    %s=%d" k v)
          (Loc.Engine.counters e)
      | None -> ()
    done
  end;
  let hits, misses, hints, pins = loc_stats c in
  {
    committed = !committed;
    remote;
    p50 = Metrics.Histogram.percentile lat 50.0;
    p99 = Metrics.Histogram.percentile lat 99.0;
    hits;
    misses;
    hints;
    pins;
    reassigns = 0;
  },
  c

(* ---------- skewed two-node contention (ping-pong) ---------- *)

(* Each hot object is a session fought over by exactly two frontends: the
   clients behind node A and node B both write it, and locality-based
   request routing (each client talks to its nearest node) means neither
   side goes through a shared balancer.  Reactively the object's ownership
   ping-pongs on every alternating write; the planner should detect the
   thrash, pin the key where it landed, and the pin — pushed to the
   balancer tier with [reassign] and consulted by the frontends — ends the
   migration churn by executing both sides at the pin target. *)
let run_skew ~quick ~predictive =
  let nodes = 3 in
  let hot_keys = 6 and hot_base = 500 in
  let interval = 40.0 in
  let warmup = if quick then 1_000.0 else 1_500.0 in
  let duration = if quick then 2_500.0 else 8_000.0 in
  let locality =
    if predictive then tuned ~bucket:8.0 ~refill_per_ms:20.0
    else Loc.Engine.default_config
  in
  (* Thread slot [2h + side] is globally reserved for key h's writer on
     that side, so a rerouted execution never collides with another loop. *)
  let config =
    { Config.default with Config.nodes; app_threads = 2 * hot_keys; seed = 23L; locality }
  in
  let c = Cluster.create ~config () in
  let eng = Cluster.engine c in
  Cluster.populate_n c ~n:hot_keys ~base:hot_base
    ~owner_of:(fun h -> h mod nodes)
    (fun _ -> Value.of_int 0);
  let balancer = ref None in
  (* Authoritative pin routing as the frontends see it: written by on_pin
     (the node where the key landed), read by every writer loop. *)
  let pin_route : (int, int) Hashtbl.t = Hashtbl.create 16 in
  if predictive then begin
    let b =
      Zeus_lb.Balancer.create ~node:0 ~lb_nodes:[ 0 ]
        ~backends:(List.init nodes (fun i -> i))
        (Cluster.transport c)
    in
    Node.set_app_handler (Cluster.node c 0) (fun ~src payload ->
        ignore (Zeus_lb.Balancer.handle b ~src payload));
    (match Node.locality (Cluster.node c 0) with
    | Some e0 -> Zeus_lb.Balancer.set_placement_hint b (Loc.Engine.route_for_key e0)
    | None -> ());
    for i = 0 to nodes - 1 do
      match Node.locality (Cluster.node c i) with
      | Some e ->
        Loc.Engine.set_on_pin e (fun ~key ~target ->
            Hashtbl.replace pin_route key target;
            Zeus_lb.Balancer.reassign b ~key target (fun () -> ()))
      | None -> ()
    done;
    balancer := Some b
  end;
  let start = warmup and stop = warmup +. duration in
  let committed = ref 0 in
  let lat = Metrics.Histogram.create "predictive.latency_us" in
  (* Writer loop [side] of key h lives at pair node [side]; the two sides
     start half an interval apart so writes alternate A,B,A,B. *)
  let rec writer h side =
    let key = hot_base + h in
    let origin = (h + side) mod nodes in
    let target = match Hashtbl.find_opt pin_route key with Some t -> t | None -> origin in
    let t0 = Engine.now eng in
    Node.run_write (Cluster.node c target) ~thread:((2 * h) + side)
      ~exec_us:0.0 ~body:(fun ctx commit -> incr_body ctx key commit)
      (fun outcome ->
        let now = Engine.now eng in
        (match outcome with
        | Txn.Committed when now >= start && now < stop ->
          incr committed;
          Metrics.Histogram.observe lat (now -. t0)
        | _ -> ());
        ignore (Engine.schedule eng ~after:interval (fun () -> writer h side)))
  in
  for h = 0 to hot_keys - 1 do
    for side = 0 to 1 do
      ignore
        (Engine.schedule eng
           ~after:((3.0 *. float_of_int h) +. (interval /. 2.0 *. float_of_int side))
           (fun () -> writer h side))
    done
  done;
  let own0 = ref 0 in
  ignore (Engine.schedule_at eng ~time:start (fun () -> own0 := Exp.txns_with_ownership c));
  Cluster.run c ~until_us:stop;
  let remote = Exp.txns_with_ownership c - !own0 in
  if Tlog.enabled Tlog.Debug then begin
    for i = 0 to nodes - 1 do
      let n = Cluster.node c i in
      Tlog.debugf ~src:"predictive"
        "[skew] node %d: committed=%d aborted=%d retries=%d own_txns=%d" i
        (Node.committed n) (Node.aborted n) (Node.retries n)
        (Node.txns_with_ownership n);
      match Node.locality n with
      | Some e ->
        List.iter
          (fun (k, v) -> Tlog.debugf ~src:"predictive" "    %s=%d" k v)
          (Loc.Engine.counters e)
      | None -> ()
    done
  end;
  let hits, misses, hints, pins = loc_stats c in
  {
    committed = !committed;
    remote;
    p50 = Metrics.Histogram.percentile lat 50.0;
    p99 = Metrics.Histogram.percentile lat 99.0;
    hits;
    misses;
    hints;
    pins;
    reassigns =
      (match !balancer with Some b -> Zeus_lb.Balancer.reassigns b | None -> 0);
  }

(* ---------- uniform (no-regression check) ---------- *)

let run_uniform ~quick ~predictive =
  let nodes = 3 in
  let ppn = 128 in
  let warmup = if quick then 500.0 else 1_000.0 in
  let duration = if quick then 2_000.0 else 6_000.0 in
  let locality =
    if predictive then Loc.Engine.enabled_default else Loc.Engine.default_config
  in
  let config = { Config.default with Config.nodes; seed = 31L; locality } in
  let c = Cluster.create ~config () in
  let eng = Cluster.engine c in
  Cluster.populate_n c ~n:(nodes * ppn) ~owner_of:(fun i -> i / ppn) (fun _ -> Value.of_int 0);
  let rngs =
    Array.init nodes (fun _ ->
        Array.init config.Config.app_threads (fun _ -> Engine.fork_rng eng))
  in
  let issue node ~thread k =
    let id = Node.id node in
    let key = (id * ppn) + Rng.int rngs.(id).(thread) ppn in
    Node.run_write node ~thread ~exec_us:0.0
      ~body:(fun ctx commit -> incr_body ctx key commit)
      k
  in
  let own0 = ref 0 and own1 = ref 0 in
  ignore (Engine.schedule eng ~after:warmup (fun () -> own0 := Exp.txns_with_ownership c));
  ignore (Engine.schedule eng ~after:(warmup +. duration) (fun () -> own1 := Exp.txns_with_ownership c));
  let r = W.Driver.run c ~warmup_us:warmup ~duration_us:duration ~issue () in
  let hits, misses, hints, pins = loc_stats c in
  {
    committed = r.W.Driver.committed;
    remote = !own1 - !own0;
    p50 = r.W.Driver.lat_p50_us;
    p99 = r.W.Driver.lat_p99_us;
    hits;
    misses;
    hints;
    pins;
    reassigns = 0;
  }

(* ---------- driver ---------- *)

let compute ~quick =
  let stage name f =
    Tlog.debugf ~src:"predictive" "%s..." name;
    let r = f () in
    Tlog.debugf ~src:"predictive" "%s done" name;
    r
  in
  let (traj_reactive, _), (traj_predictive, table_cluster) =
    ( stage "trajectory/reactive" (fun () -> run_trajectory ~quick ~predictive:false),
      stage "trajectory/predictive" (fun () -> run_trajectory ~quick ~predictive:true) )
  in
  ( {
      quick;
      trajectory = (traj_reactive, traj_predictive);
      skew =
        ( stage "skew/reactive" (fun () -> run_skew ~quick ~predictive:false),
          stage "skew/predictive" (fun () -> run_skew ~quick ~predictive:true) );
      uniform =
        ( stage "uniform/reactive" (fun () -> run_uniform ~quick ~predictive:false),
          stage "uniform/predictive" (fun () -> run_uniform ~quick ~predictive:true) );
    },
    table_cluster )

module J = Zeus_telemetry.Jsonv

let arm_to_json a =
  J.Obj
    [
      ("committed", J.int a.committed); ("remote_fraction", J.num (remote_fraction a));
      ("p50_us", J.num a.p50); ("p99_us", J.num a.p99);
      ("prefetch_hits", J.int a.hits); ("prefetch_misses", J.int a.misses);
      ("hints", J.int a.hints); ("pins", J.int a.pins); ("reassigns", J.int a.reassigns);
    ]

let to_json r =
  let pair (reactive, predictive) =
    J.Obj [ ("reactive", arm_to_json reactive); ("predictive", arm_to_json predictive) ]
  in
  J.Obj
    [
      ("quick", J.Bool r.quick); ("trajectory", pair r.trajectory); ("skew", pair r.skew);
      ("uniform", pair r.uniform);
    ]

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let print_pair title extra (reactive, predictive) =
  Exp.print_kv title
    ([
       ( "remote txn fraction",
         Printf.sprintf "reactive %s -> predictive %s" (pct (remote_fraction reactive))
           (pct (remote_fraction predictive)) );
       ( "p50 latency (us)",
         Printf.sprintf "reactive %.1f -> predictive %.1f" reactive.p50 predictive.p50 );
       ( "p99 latency (us)",
         Printf.sprintf "reactive %.1f -> predictive %.1f" reactive.p99 predictive.p99 );
       ( "committed (window)",
         Printf.sprintf "reactive %d -> predictive %d" reactive.committed
           predictive.committed );
     ]
    @ extra predictive)

let run ~quick =
  let r, table_cluster = compute ~quick in
  print_pair "predictive: trajectory handovers (directional prefetch)"
    (fun p ->
      [
        ("prefetch hit rate", Printf.sprintf "%s (%d hits, %d misses)" (pct (hit_rate p)) p.hits p.misses);
        ("hints sent", string_of_int p.hints);
      ])
    r.trajectory;
  print_pair "predictive: two-node hot-key contention (anti-ping-pong pin)"
    (fun p ->
      [
        ("pins set (node 0 planner)", string_of_int p.pins);
        ("balancer reassigns", string_of_int p.reassigns);
      ])
    r.skew;
  print_pair "predictive: uniform partitioned load (no-regression check)"
    (fun p -> [ ("hints sent (should be ~0)", string_of_int p.hints) ])
    r.uniform;
  Exp.print_phase_breakdown "predictive: per-phase txn latency (trajectory, predictive)"
    table_cluster;
  r
