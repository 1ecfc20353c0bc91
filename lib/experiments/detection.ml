(** Failure-detection sweep (an ablation of §3.1's membership service).

    The paper assumes an external membership service with unreliable
    detection and leases; this experiment measures the reproduction's
    end-to-end detector ([membership_mode = Detected]) across the two
    knobs that govern it — heartbeat period and suspicion-timeout floor
    (the cap is fixed at twice the floor).  Per configuration:

    - {e crash arm}: 4-node Smallbank (nodes 0–2 drive, accounts homed
      there), node 3 — a pure follower — crashes with {e no} oracle
      announcement.  Measured: crash until the survivors installed the
      excluding view, checked against the configuration's analytical
      bound ({!Zeus_membership.Service.detection_bound_us}), and whether
      commits progressed after the view change;
    - {e noise arm}: the same cluster, no crash, but a cluster-wide
      loss/dup/delay spike in the middle of the run.  Measured: suspicion
      churn (raised / retracted), evictions averted at lease expiry, and
      — the failure mode that matters — false suspicions, i.e. live nodes
      actually evicted and fenced.

    The tension the sweep exposes: shorter periods and lower floors
    detect faster (crash arm) but suspect more readily under loss (noise
    arm).  The adaptive per-peer timeout keeps the false-positive side
    flat until the floor drops near the spike's induced silence. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Service = Zeus_membership.Service
module Detector = Zeus_membership.Detector
module View = Zeus_membership.View
module W = Zeus_workload
module Chaos = Zeus_chaos

type combo = {
  period_us : float;
  min_timeout_us : float;
  bound_us : float;
  detect_latency_us : float option;
  within_bound : bool;
  recovered : bool;
  crash_suspicions : int;
  noise_suspicions : int;
  noise_retractions : int;
  noise_false_suspicions : int;
  noise_evictions_averted : int;
  noise_views_installed : int;
}

type results = { quick : bool; seed : int64; combos : combo list }

let seed = 11L

let detection_of ~period_us ~min_timeout_us =
  { Detector.period_us; min_timeout_us; max_timeout_us = 2.0 *. min_timeout_us }

let make_cluster ~quick ~period_us ~min_timeout_us =
  let config =
    {
      Config.default with
      Config.nodes = 4;
      dir_replicas = 2;
      seed;
      app_threads = 4;
      auto_trim = false;
      membership_mode = Service.Detected;
      detection = detection_of ~period_us ~min_timeout_us;
    }
  in
  let c = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine c) in
  let accounts = if quick then 40 else 100 in
  let w =
    W.Smallbank.create ~accounts_per_node:accounts ~nodes:3 ~remote_frac:0.2 rng
  in
  W.Smallbank.populate w c;
  (c, w)

(* Closed loops on nodes 0-2 (node 3 never drives, so the crash arm's
   victim is a pure follower), resilient to the victim's absence. *)
let drive c w =
  W.Driver.closed_loop c ~nodes:[ 0; 1; 2 ] (fun node ->
      W.Smallbank.gen w ~home:(Node.id node))

let crash_arm ~quick ~period_us ~min_timeout_us =
  let c, w = make_cluster ~quick ~period_us ~min_timeout_us in
  let eng = Cluster.engine c in
  let svc = Cluster.membership c in
  let bound = Service.detection_bound_us svc in
  let fault_at = 1_500.0 +. if quick then 2_500.0 else 5_000.0 in
  let end_us = fault_at +. bound +. if quick then 4_000.0 else 8_000.0 in
  let stop = drive c w in
  let installed_at = ref None in
  let committed_at_install = ref 0 in
  Service.subscribe svc 0 (fun v ->
      if !installed_at = None && not (View.is_live v 3) then begin
        installed_at := Some (Engine.now eng);
        committed_at_install := Cluster.total_committed c
      end);
  ignore (Engine.schedule eng ~after:fault_at (fun () -> Cluster.kill c 3));
  Cluster.run c ~until_us:end_us;
  stop ();
  Cluster.run_quiesce c ~max_us:100_000.0 ();
  let stats = Service.det_stats svc in
  let latency = Option.map (fun at -> at -. fault_at) !installed_at in
  let recovered =
    match !installed_at with
    | None -> false
    | Some _ -> Cluster.total_committed c > !committed_at_install
  in
  ( latency,
    bound,
    (match latency with Some l -> l <= bound | None -> false),
    recovered,
    stats.Service.suspicions )

let noise_arm ~quick ~period_us ~min_timeout_us =
  let c, w = make_cluster ~quick ~period_us ~min_timeout_us in
  let spike_at = 2_500.0 in
  let spike_dur = if quick then 2_000.0 else 4_000.0 in
  let end_us = spike_at +. spike_dur +. 3_000.0 in
  let schedule =
    Chaos.Schedule.v ~name:"detection-noise" ~seed
      (Chaos.Schedule.spike_window ~at_us:spike_at ~duration_us:spike_dur ~loss:0.15
         ~dup:0.02 ~delay_us:30.0 ())
  in
  let nemesis = Chaos.Nemesis.attach c schedule in
  let stop = drive c w in
  Cluster.run c ~until_us:end_us;
  stop ();
  Cluster.run_quiesce c ~max_us:100_000.0 ();
  assert (Chaos.Nemesis.done_ nemesis);
  Service.det_stats (Cluster.membership c)

let run_combo ~quick (period_us, min_timeout_us) =
  let detect_latency_us, bound_us, within_bound, recovered, crash_suspicions =
    crash_arm ~quick ~period_us ~min_timeout_us
  in
  let n = noise_arm ~quick ~period_us ~min_timeout_us in
  {
    period_us;
    min_timeout_us;
    bound_us;
    detect_latency_us;
    within_bound;
    recovered;
    crash_suspicions;
    noise_suspicions = n.Service.suspicions;
    noise_retractions = n.Service.retractions;
    noise_false_suspicions = n.Service.false_suspicions;
    noise_evictions_averted = n.Service.evictions_averted;
    noise_views_installed = n.Service.views_installed;
  }

let compute ~quick =
  let periods = if quick then [ 150.0; 300.0 ] else [ 100.0; 200.0; 400.0 ] in
  let floors = if quick then [ 900.0; 1_800.0 ] else [ 600.0; 1_200.0; 2_400.0 ] in
  (* Each combo builds its own cluster from [seed], so the grid is an
     independent sweep: farm it out (bit-identical to sequential). *)
  let grid = List.concat_map (fun p -> List.map (fun f -> (p, f)) floors) periods in
  let combos = Sweep.map (run_combo ~quick) grid in
  { quick; seed; combos }

module J = Zeus_telemetry.Jsonv

let combo_to_json c =
  J.Obj
    [
      ("period_us", J.num c.period_us); ("min_timeout_us", J.num c.min_timeout_us);
      ("bound_us", J.num c.bound_us); ("detect_latency_us", J.opt J.num c.detect_latency_us);
      ("within_bound", J.Bool c.within_bound); ("recovered", J.Bool c.recovered);
      ("crash_suspicions", J.int c.crash_suspicions);
      ("noise_suspicions", J.int c.noise_suspicions);
      ("noise_retractions", J.int c.noise_retractions);
      ("noise_false_suspicions", J.int c.noise_false_suspicions);
      ("noise_evictions_averted", J.int c.noise_evictions_averted);
      ("noise_views_installed", J.int c.noise_views_installed);
    ]

let to_json r =
  J.Obj
    [
      ("quick", J.Bool r.quick); ("seed", J.num (Int64.to_float r.seed));
      ("combos", J.Arr (List.map combo_to_json r.combos));
    ]

let print_combo c =
  Exp.print_kv
    (Printf.sprintf "detection: period %.0f us, timeout floor %.0f us" c.period_us
       c.min_timeout_us)
    [
      ( "crash: detect latency (us)",
        match c.detect_latency_us with
        | Some l -> Printf.sprintf "%.0f (bound %.0f)" l c.bound_us
        | None -> Printf.sprintf "never (bound %.0f)" c.bound_us );
      ("crash: within bound", if c.within_bound then "yes" else "NO");
      ("crash: recovered", if c.recovered then "yes" else "NO");
      ("crash: suspicions", string_of_int c.crash_suspicions);
      ( "noise: suspicions raised/retracted",
        Printf.sprintf "%d / %d" c.noise_suspicions c.noise_retractions );
      ( "noise: false suspicions / averted",
        Printf.sprintf "%d / %d" c.noise_false_suspicions c.noise_evictions_averted );
      ("noise: views installed", string_of_int c.noise_views_installed);
    ]

let run ~quick =
  let r = compute ~quick in
  List.iter print_combo r.combos;
  r
