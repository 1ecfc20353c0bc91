(** Performance under failures (§8): Smallbank through crash and recovery.

    The paper's fault experiment kills one replica while the cluster serves
    Smallbank and reports the throughput dip and the time until goodput
    recovers (bounded by detection + lease expiry, ~3 ms here).  Three
    scenarios, one crashed role each, on a 4-node cluster with a 2-replica
    directory (nodes 0 and 1) and replication degree 3:

    - {e follower}: accounts homed on nodes 0–2, node 3 crashes — a pure
      reader replica (it owns nothing and holds no directory).  Reliable
      commits of the keys it backs stall until the view change removes it;
    - {e owner}: nodes 0–1 drive with a remote fraction against accounts
      homed on node 2, which crashes — every transaction on its accounts
      must wait for the view change and then re-arbitrate ownership from a
      surviving replica;
    - {e directory}: accounts homed on nodes 1–3, node 0 crashes — it
      drives no traffic and owns nothing, so the dip isolates the loss of
      a directory replica (ownership arbitration continues on the
      remaining replica after the view change).

    A fourth scenario, {e follower-detected}, repeats the follower crash
    with [membership_mode = Detected]: no oracle announces the crash — the
    survivors' heartbeat detectors must suspect node 3, reach a quorum and
    wait out the lease before the view change, so comparing it against
    {e follower} isolates the price of real end-to-end failure detection.

    A fifth scenario, {e reorder}, crashes nobody: the cluster runs on
    [Transport.unordered] (exactly-once delivery, no per-flow order) and
    the nemesis scrambles delivery order mid-run — the commit protocol's
    sequence-aware clear marks must keep goodput flat where the legacy
    arrival-order clearing would wedge followers.

    Each scenario runs under a {!Zeus_chaos.Schedule} executed by the
    {!Zeus_chaos.Nemesis} with a {!Zeus_chaos.Monitor} attached: the
    goodput timeline (500 µs windows over the surviving drivers) yields
    the recovery time — fault injection until two consecutive windows back
    at 90 % of the pre-fault mean — and the online single-owner and
    version-monotonicity checks plus the post-quiesce convergence check
    must all pass. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module W = Zeus_workload
module Chaos = Zeus_chaos

let seed = 7L

(* One scenario: a fresh 4-node cluster, Smallbank homed on [home_shift ..
   home_shift+2], a crash-tolerant closed loop on [drive]
   ({!W.Driver.closed_loop}), and a crash/restart window on [crash_node]
   executed by the nemesis. *)
let run_scenario ?(mode = Zeus_membership.Service.Oracle) ?(extra_down_us = 0.0)
    ?(transport = Zeus_net.Transport.default_config) ?scramble ~quick ~name
    ~home_shift ~drive ~crash_node ~remote_frac () =
  let warmup_us = if quick then 1_500.0 else 3_000.0 in
  let fault_at_us = warmup_us +. if quick then 5_000.0 else 8_000.0 in
  (* [extra_down_us] stretches the crash window for Detected mode: the view
     change only lands after detect + suspicion quorum + lease (~4 ms), so
     without the stretch the node would rejoin before the post-eviction
     goodput plateau is even observable. *)
  let down_us = (if quick then 6_000.0 else 9_000.0) +. extra_down_us in
  let restart_at_us = fault_at_us +. down_us in
  let end_us = restart_at_us +. if quick then 6_000.0 else 10_000.0 in
  (* auto_trim off: with 4 nodes and degree 3, a remote acquisition's trim
     can wedge the object's o_state (the pre-existing protocol corner noted
     in the predictive experiment), which shows up here as goodput decaying
     all run long — with trims off the pre-fault baseline is flat. *)
  let config =
    {
      Config.default with
      Config.nodes = 4;
      dir_replicas = 2;
      seed;
      app_threads = 6;
      auto_trim = false;
      membership_mode = mode;
      transport;
    }
  in
  let c = Cluster.create ~config () in
  let eng = Cluster.engine c in
  let rng = Engine.fork_rng eng in
  let accounts = if quick then 60 else 150 in
  let w = W.Smallbank.create ~accounts_per_node:accounts ~nodes:3 ~remote_frac rng in
  Cluster.populate_n c ~n:(W.Smallbank.total_keys w)
    ~owner_of:(fun k -> home_shift + W.Smallbank.home_of_key w k)
    (fun _ -> Bytes.copy W.Smallbank.initial_value);
  let monitor = Chaos.Monitor.attach ~observed:drive c in
  (* [scramble = Some prob] swaps the incident: instead of a crash, the
     nemesis arms delivery-order scrambling for the same window — only
     meaningful on an unordered transport, where the permutation actually
     reaches the protocol layer. *)
  let schedule =
    Chaos.Schedule.v ~name ~seed
      (match scramble with
      | Some prob ->
        Chaos.Schedule.scramble_window ~at_us:fault_at_us ~duration_us:down_us ~prob ()
      | None ->
        Chaos.Schedule.crash_restart ~node:crash_node ~at_us:fault_at_us ~down_us)
  in
  let nemesis = Chaos.Nemesis.attach ~monitor c schedule in
  let committed0 = ref 0 and aborted0 = ref 0 in
  let stop =
    W.Driver.closed_loop c ~nodes:drive (fun node ->
        W.Smallbank.gen w ~home:(Node.id node - home_shift))
  in
  ignore
    (Engine.schedule eng ~after:warmup_us (fun () ->
         committed0 := Cluster.total_committed c;
         aborted0 := Cluster.total_aborted c));
  Cluster.run c ~until_us:end_us;
  stop ();
  Chaos.Monitor.stop monitor;
  Cluster.run_quiesce c ~max_us:(end_us +. 100_000.0) ();
  assert (Chaos.Nemesis.done_ nemesis);
  Chaos.Report.of_monitor ~name ~fault_at_us ~restart_at_us
    ~detection:(Chaos.Report.detection_of_service (Cluster.membership c))
    ~committed:(Cluster.total_committed c - !committed0)
    ~aborted:(Cluster.total_aborted c - !aborted0)
    monitor

let compute ~quick =
  let scenarios =
    [
      run_scenario ~quick ~name:"follower" ~home_shift:0 ~drive:[ 0; 1; 2 ]
        ~crash_node:3 ~remote_frac:0.2 ();
      run_scenario ~quick ~name:"owner" ~home_shift:0 ~drive:[ 0; 1 ] ~crash_node:2
        ~remote_frac:0.35 ();
      run_scenario ~quick ~name:"directory" ~home_shift:1 ~drive:[ 1; 2; 3 ]
        ~crash_node:0 ~remote_frac:0.2 ();
      (* Same crash as [follower], but nothing tells the membership service:
         the survivors must detect the silence, reach a suspicion quorum and
         wait out the lease before the view change — recovery here measures
         the whole detect → suspect → lease → install pipeline. *)
      run_scenario ~mode:Zeus_membership.Service.Detected
        ~extra_down_us:(if quick then 8_000.0 else 12_000.0) ~quick
        ~name:"follower-detected" ~home_shift:0 ~drive:[ 0; 1; 2 ] ~crash_node:3
        ~remote_frac:0.2 ();
      (* No crash at all: the whole cluster runs on the unordered transport
         (exactly-once, {e no} per-flow order) and the nemesis scrambles
         delivery order for the incident window.  The sequence-aware clear
         marks must keep commit streams draining — goodput barely dips and
         every monitor stays green; on the legacy arrival-order clearing
         this scenario wedges. *)
      run_scenario
        ~transport:(Zeus_net.Transport.unordered Zeus_net.Transport.default_config)
        ~scramble:0.5 ~quick ~name:"reorder" ~home_shift:0 ~drive:[ 0; 1; 2 ]
        ~crash_node:3 ~remote_frac:0.2 ();
    ]
  in
  { Chaos.Report.quick; seed; scenarios }

let print_scenario (s : Chaos.Report.scenario) =
  Exp.print_kv
    (Printf.sprintf "faults: %s crash at %.0f us" s.Chaos.Report.name
       s.Chaos.Report.fault_at_us)
    ([
      ("baseline goodput (Mtps)", Printf.sprintf "%.4f" s.Chaos.Report.baseline_mtps);
      ("worst window (Mtps)", Printf.sprintf "%.4f" s.Chaos.Report.dip_mtps);
      ( "recovery (us)",
        match s.Chaos.Report.recovery_us with
        | Some r -> Printf.sprintf "%.0f" r
        | None -> "never" );
      ("committed / aborted", Printf.sprintf "%d / %d" s.Chaos.Report.committed s.Chaos.Report.aborted);
      ("monitors", if s.Chaos.Report.monitors_ok then "ok" else "VIOLATION");
    ]
    @
    match s.Chaos.Report.detection with
    | Some d when d.Chaos.Report.d_mode = "detected" ->
      [
        ( "detection",
          Printf.sprintf "%d suspicions, %d false, %d averted, %d views"
            d.Chaos.Report.d_suspicions d.Chaos.Report.d_false_suspicions
            d.Chaos.Report.d_evictions_averted d.Chaos.Report.d_views_installed );
      ]
    | _ -> [])

let run ~quick =
  let r = compute ~quick in
  List.iter print_scenario r.Chaos.Report.scenarios;
  List.iter
    (fun (s : Chaos.Report.scenario) ->
      List.iter
        (fun v -> Zeus_telemetry.Tlog.warnf "faults/%s: %s" s.Chaos.Report.name v)
        s.Chaos.Report.violations)
    r.Chaos.Report.scenarios;
  r
