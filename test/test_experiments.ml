(* Smoke tests for the experiment harness itself: the registry resolves,
   quick runs complete, and the scale presets are sane.  (The heavyweight
   figures run in the bench, not here.) *)

let tc = Helpers.tc
let check = Alcotest.check

module E = Zeus_experiments.Experiments

let registry_ids () =
  check
    Alcotest.(list string)
    "the whole registry, in order"
    [
      "table2"; "verify"; "locality"; "predictive"; "fig7"; "fig8"; "fig9";
      "fig10-12"; "fig13-15"; "tpcc"; "ablations"; "transport"; "faults";
      "detection"; "perf";
    ]
    (E.names ());
  check
    Alcotest.(list (pair string string))
    "exactly these name a BENCH file"
    [
      ("predictive", "BENCH_locality.json");
      ("transport", "BENCH_transport.json");
      ("faults", "BENCH_faults.json");
      ("detection", "BENCH_detection.json");
      ("perf", "BENCH_perf.json");
    ]
    (List.filter_map
       (fun (e : E.t) -> Option.map (fun f -> (e.E.id, f)) (E.bench_file e))
       E.all)

let unknown_id_rejected () =
  check Alcotest.bool "unknown id" true (E.find "nope" = None)

let scales () =
  let q = Zeus_experiments.Exp.scale_of ~quick:true in
  let f = Zeus_experiments.Exp.scale_of ~quick:false in
  check Alcotest.bool "quick smaller" true
    (q.Zeus_experiments.Exp.objects_per_node < f.Zeus_experiments.Exp.objects_per_node);
  check Alcotest.bool "quick shorter" true
    (q.Zeus_experiments.Exp.duration_us < f.Zeus_experiments.Exp.duration_us)

(* A table-only experiment runs and hands back nothing to write. *)
let runs id () =
  match E.find id with
  | None -> Alcotest.failf "missing experiment %s" id
  | Some e -> check Alcotest.bool id true (E.run ~quick:true e = None)

(* ---------- Sweep: domain-parallel maps ---------- *)

let sweep_map_order () =
  let xs = List.init 37 (fun i -> i) in
  let sq = Zeus_experiments.Sweep.map ~jobs:1 (fun x -> x * x) xs in
  let par = Zeus_experiments.Sweep.map ~jobs:4 (fun x -> x * x) xs in
  check Alcotest.(list int) "in input order" sq par;
  check Alcotest.(list int) "correct" (List.map (fun x -> x * x) xs) par

(* One tiny Smallbank simulation per point: each builds its own cluster, so
   one job, four jobs and the host's default must produce identical
   committed/abort/event counts. *)
let mini_point remote_frac =
  let module Engine = Zeus_sim.Engine in
  let module Cluster = Zeus_core.Cluster in
  let module Config = Zeus_core.Config in
  let module Node = Zeus_core.Node in
  let module W = Zeus_workload in
  let config = { Config.default with Config.nodes = 3 } in
  let cluster = Cluster.create ~config () in
  let rng = Engine.fork_rng (Cluster.engine cluster) in
  let w = W.Smallbank.create ~accounts_per_node:200 ~nodes:3 ~remote_frac rng in
  W.Smallbank.populate w cluster;
  let r =
    W.Driver.run cluster ~warmup_us:200.0 ~duration_us:1_500.0
      ~issue:(W.Spec.issue (W.Smallbank.gen w)) ()
  in
  ( r.W.Driver.committed,
    r.W.Driver.aborted,
    Engine.events_dispatched (Cluster.engine cluster) )

let sweep_deterministic () =
  let fracs = [ 0.0; 0.1; 0.2; 0.3 ] in
  let j1 = Zeus_experiments.Sweep.map ~jobs:1 mini_point fracs in
  let j4 = Zeus_experiments.Sweep.map ~jobs:4 mini_point fracs in
  let host = Zeus_experiments.Sweep.map mini_point fracs in
  check
    Alcotest.(list (triple int int int))
    "-j1 and -j4 bit-identical" j1 j4;
  check
    Alcotest.(list (triple int int int))
    "-j1 and the host's job count bit-identical" j1 host;
  List.iter (fun (c, _, _) -> check Alcotest.bool "work happened" true (c > 0)) j1

let suite =
  [
    tc "registry: all paper artifacts present" registry_ids;
    tc "registry: unknown ids rejected" unknown_id_rejected;
    tc "scales: quick < full" scales;
    tc "table2 runs" (runs "table2");
    tc "locality analysis runs" (runs "locality");
    tc "sweep: map preserves order across domains" sweep_map_order;
    tc "sweep: -j1 vs -j4 bit-identical simulations" sweep_deterministic;
  ]
