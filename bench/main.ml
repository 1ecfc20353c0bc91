(* Benchmark harness.

   Default: regenerate every table and figure of the paper's evaluation
   (Table 2, the locality analysis, Figures 7-15) plus the ablations --
   printed as text tables with the paper-reported shapes alongside.

     dune exec bench/main.exe                 # everything (a few minutes)
     dune exec bench/main.exe -- --quick      # small smoke sweep
     dune exec bench/main.exe -- fig8 fig9    # selected experiments
     dune exec bench/main.exe -- --micro      # bechamel microbenchmarks

   The microbenchmarks time the protocol-critical code paths of this
   implementation (one simulated operation per iteration): useful for
   regressions of the simulator and protocol engines themselves. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value

type Zeus_net.Msg.payload += Bench_ping

let drain cluster = Cluster.run_quiesce cluster ~max_us:1e7 ()

let micro_tests () =
  let open Bechamel in
  (* rng *)
  let rng = Zeus_sim.Rng.create 1L in
  let zipf = Zeus_sim.Rng.Zipf.create ~n:1_000_000 ~theta:0.99 in
  let t_rng =
    Test.make ~name:"rng/zipf-sample"
      (Staged.stage (fun () -> ignore (Zeus_sim.Rng.Zipf.sample zipf rng)))
  in
  (* fabric round trip *)
  let engine = Zeus_sim.Engine.create () in
  let fabric = Zeus_net.Fabric.create engine ~nodes:2 Zeus_net.Fabric.default_config in
  Zeus_net.Fabric.set_handler fabric 1 (fun ~src:_ _ -> ());
  let t_fabric =
    Test.make ~name:"net/fabric-send-deliver"
      (Staged.stage (fun () ->
           Zeus_net.Fabric.send fabric ~src:0 ~dst:1 Bench_ping;
           Zeus_sim.Engine.run engine))
  in
  (* single-node local transaction *)
  let c1 =
    Cluster.create
      ~config:
        { Config.default with Config.nodes = 1; replication_degree = 1; dir_replicas = 1 }
      ()
  in
  Cluster.populate c1 ~key:1 ~owner:0 (Value.of_int 0);
  let n1 = Cluster.node c1 0 in
  let t_local =
    Test.make ~name:"txn/local-write-commit"
      (Staged.stage (fun () ->
           Node.run_write n1 ~thread:0
             ~body:(fun ctx commit ->
               Node.read_write ctx 1
                 (fun v -> Value.of_int (Value.to_int v + 1))
                 (fun _ -> commit ()))
             (fun _ -> ());
           drain c1))
  in
  (* 3-way replicated commit *)
  let c3 = Cluster.create () in
  Cluster.populate c3 ~key:1 ~owner:0 (Value.of_int 0);
  let n3 = Cluster.node c3 0 in
  let t_commit =
    Test.make ~name:"commit/3-way-reliable-commit"
      (Staged.stage (fun () ->
           Node.run_write n3 ~thread:0
             ~body:(fun ctx commit ->
               Node.read_write ctx 1
                 (fun v -> Value.of_int (Value.to_int v + 1))
                 (fun _ -> commit ()))
             (fun _ -> ());
           drain c3))
  in
  (* ownership ping-pong *)
  let cown = Cluster.create () in
  Cluster.populate cown ~key:7 ~owner:0 (Value.of_int 0);
  let flip = ref 1 in
  let t_own =
    Test.make ~name:"ownership/acquire-ping-pong"
      (Staged.stage (fun () ->
           Node.acquire_ownership (Cluster.node cown !flip) 7 (fun _ -> ());
           flip := (!flip + 1) mod 3;
           drain cown))
  in
  (* read-only transaction on a reader *)
  let t_ro =
    Test.make ~name:"txn/read-only-on-replica"
      (Staged.stage (fun () ->
           Node.run_read (Cluster.node c3 1) ~thread:0
             ~body:(fun ctx commit -> Node.read ctx 1 (fun _ -> commit ()))
             (fun _ -> ());
           drain c3))
  in
  (* hermes write *)
  let he = Zeus_sim.Engine.create () in
  let hf = Zeus_net.Fabric.create he ~nodes:3 Zeus_net.Fabric.default_config in
  let ht = Zeus_net.Transport.create hf in
  let replicas = [ 0; 1; 2 ] in
  let hs = List.map (fun n -> Zeus_lb.Hermes.create ~node:n ~replicas ht) replicas in
  List.iteri
    (fun i h ->
      Zeus_net.Transport.set_handler ht i (fun ~src payload ->
          ignore (Zeus_lb.Hermes.handle h ~src payload)))
    hs;
  let h0 = List.hd hs in
  let t_hermes =
    Test.make ~name:"lb/hermes-replicated-write"
      (Staged.stage (fun () ->
           Zeus_lb.Hermes.write h0 ~key:3 (Value.of_int 9) (fun () -> ());
           Zeus_sim.Engine.run he))
  in
  (* baseline distributed transaction *)
  let be = Zeus_baseline.Engine.create ~primary_of:(fun k -> k mod 3) () in
  let t_base =
    Test.make ~name:"baseline/occ-2pc-txn"
      (Staged.stage (fun () ->
           Zeus_baseline.Engine.submit be ~home:0
             (Zeus_workload.Spec.write_txn [ 1; 2 ])
             (fun _ -> ());
           Zeus_sim.Engine.run (Zeus_baseline.Engine.engine be)))
  in
  [ t_rng; t_fabric; t_local; t_commit; t_own; t_ro; t_hermes; t_base ]

let run_micro () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"zeus" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n== microbenchmarks (ns per simulated operation) ==\n";
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> Printf.printf "  %-44s %12.1f\n" name est
      | Some [] | None -> Printf.printf "  %-44s %12s\n" name "n/a")
    (List.sort compare rows);
  Printf.printf "%!"

(* Machine-readable results for the locality experiment (CI trend tracking;
   no JSON library in the tree, so emit by hand with non-finite guards). *)
let emit_locality_json path =
  match Zeus_experiments.Predictive.last_results () with
  | None -> ()
  | Some r ->
    let module P = Zeus_experiments.Predictive in
    let num x = if Float.is_finite x then Printf.sprintf "%.3f" x else "null" in
    let arm (a : P.arm) =
      Printf.sprintf
        "{\"committed\": %d, \"remote_fraction\": %s, \"p50_us\": %s, \"p99_us\": %s, \
         \"prefetch_hits\": %d, \"prefetch_misses\": %d, \"hints\": %d, \"pins\": %d, \
         \"reassigns\": %d}"
        a.P.committed
        (num (P.remote_fraction a))
        (num a.P.p50) (num a.P.p99) a.P.hits a.P.misses a.P.hints a.P.pins a.P.reassigns
    in
    let pair (reactive, predictive) =
      Printf.sprintf "{\"reactive\": %s, \"predictive\": %s}" (arm reactive)
        (arm predictive)
    in
    let oc = open_out path in
    Printf.fprintf oc
      "{\"quick\": %b,\n \"trajectory\": %s,\n \"skew\": %s,\n \"uniform\": %s}\n"
      r.P.quick (pair r.P.trajectory) (pair r.P.skew) (pair r.P.uniform);
    close_out oc;
    Printf.printf "wrote %s\n%!" path

(* Machine-readable results for the transport ablation (consumed by the
   bench-smoke CI check). *)
let emit_transport_json path =
  match Zeus_experiments.Transport_ab.last_results () with
  | None -> ()
  | Some r ->
    let module T = Zeus_experiments.Transport_ab in
    let num x = if Float.is_finite x then Printf.sprintf "%.4f" x else "null" in
    let arm (a : T.arm) =
      Printf.sprintf
        "{\"committed\": %d, \"mtps\": %s, \"abort_rate\": %s, \"p50_us\": %s, \
         \"p99_us\": %s, \"messages\": %d, \"bytes\": %d, \"events\": %d, \
         \"messages_per_txn\": %s, \"bytes_per_txn\": %s, \"events_per_txn\": %s, \
         \"retransmissions\": %d, \"frames\": %d, \"payloads\": %d, \
         \"mean_occupancy\": %s, \"acks_piggybacked\": %d, \"acks_standalone\": %d}"
        a.T.committed (num a.T.mtps) (num a.T.abort_rate) (num a.T.p50) (num a.T.p99)
        a.T.messages a.T.bytes a.T.events
        (num (T.msgs_per_txn a))
        (num (T.bytes_per_txn a))
        (num (T.events_per_txn a))
        a.T.retransmissions a.T.frames a.T.payloads (num a.T.mean_occupancy)
        a.T.piggybacked_acks a.T.standalone_acks
    in
    let pair (unbatched, batched) =
      Printf.sprintf "{\"unbatched\": %s, \"batched\": %s}" (arm unbatched) (arm batched)
    in
    let oc = open_out path in
    Printf.fprintf oc "{\"quick\": %b,\n \"smallbank\": %s,\n \"handover\": %s}\n"
      r.T.quick (pair r.T.smallbank) (pair r.T.handover);
    close_out oc;
    Printf.printf "wrote %s\n%!" path

(* Machine-readable results for the fault-injection experiment (consumed
   by the chaos-smoke CI check). *)
let emit_faults_json path =
  match Zeus_experiments.Faults.last_results () with
  | None -> ()
  | Some r ->
    Zeus_chaos.Report.write ~path (Zeus_experiments.Faults.report r);
    Printf.printf "wrote %s\n%!" path

(* Machine-readable results for the failure-detection sweep (consumed by
   the detect-smoke CI check). *)
let emit_detection_json path =
  match Zeus_experiments.Detection.last_results () with
  | None -> ()
  | Some r ->
    let module D = Zeus_experiments.Detection in
    let num x = if Float.is_finite x then Printf.sprintf "%.1f" x else "null" in
    let opt_num = function Some x -> num x | None -> "null" in
    let combo (c : D.combo) =
      Printf.sprintf
        "{\"period_us\": %s, \"min_timeout_us\": %s, \"bound_us\": %s, \
         \"detect_latency_us\": %s, \"within_bound\": %b, \"recovered\": %b, \
         \"crash_suspicions\": %d, \"noise_suspicions\": %d, \
         \"noise_retractions\": %d, \"noise_false_suspicions\": %d, \
         \"noise_evictions_averted\": %d, \"noise_views_installed\": %d}"
        (num c.D.period_us) (num c.D.min_timeout_us) (num c.D.bound_us)
        (opt_num c.D.detect_latency_us) c.D.within_bound c.D.recovered
        c.D.crash_suspicions c.D.noise_suspicions c.D.noise_retractions
        c.D.noise_false_suspicions c.D.noise_evictions_averted
        c.D.noise_views_installed
    in
    let oc = open_out path in
    Printf.fprintf oc "{\"quick\": %b,\n \"seed\": %Ld,\n \"combos\": [\n  %s\n ]}\n"
      r.D.quick r.D.seed
      (String.concat ",\n  " (List.map combo r.D.combos));
    close_out oc;
    Printf.printf "wrote %s\n%!" path

(* Machine-readable results for the perf harness (consumed by the
   perf-smoke CI check: events/sec, words/event, promoted words/event and
   populate live words/key against the baseline, -j sweep scaling). *)
let emit_perf_json path =
  match Zeus_experiments.Perf.last_results () with
  | None -> ()
  | Some r ->
    let module P = Zeus_experiments.Perf in
    let num x = if Float.is_finite x then Printf.sprintf "%.3f" x else "null" in
    let opt_num = function Some x -> num x | None -> "null" in
    let s = r.P.smallbank in
    let p = r.P.populate in
    let oc = open_out path in
    Printf.fprintf oc
      "{\"quick\": %b,\n \"repeats\": %d,\n \"cores\": %d,\n \
       \"smallbank\": {\"events_per_sec\": %s, \"events\": %d, \"wall_s\": %s, \
       \"committed\": %d, \"sim_us\": %s, \"minor_words\": %s, \
       \"major_words\": %s, \"words_per_event\": %s, \
       \"promoted_words\": %s, \"promoted_per_event\": %s},\n \
       \"baseline_events_per_sec\": %s,\n \"speedup\": %s,\n \
       \"regression_ok\": %b,\n \
       \"baseline_words_per_event\": %s,\n \"words_ok\": %b,\n \
       \"baseline_promoted_per_event\": %s,\n \"promoted_ok\": %b,\n \
       \"populate\": {\"keys\": %d, \"setup_s\": %s, \"live_words_per_key\": %s},\n \
       \"baseline_live_words_per_key\": %s,\n \"live_words_ok\": %b,\n \
       \"sweep\": {\"points\": %d, \"jobs\": %d, \"j1_wall_s\": %s, \
       \"jn_wall_s\": %s, \"speedup\": %s, \"identical\": %b}}\n"
      r.P.quick r.P.repeats r.P.cores
      (num s.P.events_per_sec) s.P.events (num s.P.wall_s) s.P.committed
      (num s.P.sim_us) (num s.P.minor_words) (num s.P.major_words)
      (num s.P.words_per_event) (num s.P.promoted_words) (num s.P.promoted_per_event)
      (opt_num r.P.baseline_events_per_sec)
      (opt_num r.P.speedup) r.P.regression_ok
      (opt_num r.P.baseline_words_per_event) r.P.words_ok
      (opt_num r.P.baseline_promoted_per_event) r.P.promoted_ok
      p.P.keys (num p.P.setup_s) (num p.P.live_words_per_key)
      (opt_num r.P.baseline_live_words_per_key) r.P.live_words_ok
      r.P.sweep_points r.P.sweep_jobs
      (num r.P.sweep_j1_wall_s) (num r.P.sweep_jn_wall_s)
      (num r.P.sweep_speedup) r.P.sweep_identical;
    close_out oc;
    Printf.printf "wrote %s\n%!" path

let () =
  (* A simulation run allocates ~10^8 short-lived words (events, messages,
     closures) whose lifetime is a few virtual µs; with the default 256 kw
     minor heap a large fraction is promoted only to die in the next major
     cycle.  A 16 Mw minor heap lets that garbage die young, and a relaxed
     space_overhead keeps the major GC off the hot loop — together worth
     ~25 % events/sec on the smallbank perf run (DESIGN.md §12). *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024; Gc.space_overhead = 400 };
  (* Experiment tables go through Tlog at Info; the library default (Warn)
     would silence them for this user-facing entry point. *)
  Zeus_telemetry.Tlog.set_level Zeus_telemetry.Tlog.Info;
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let micro = List.mem "--micro" args in
  (* -j N: run independent sweep points on N domains (default 1). *)
  let rec parse_jobs = function
    | "-j" :: n :: _ -> int_of_string_opt n
    | a :: rest ->
      (match String.length a > 2 && String.sub a 0 2 = "-j" with
      | true -> int_of_string_opt (String.sub a 2 (String.length a - 2))
      | false -> parse_jobs rest)
    | [] -> None
  in
  Option.iter Zeus_experiments.Sweep.set_jobs (parse_jobs args);
  let args =
    (* Drop "-j" "N" so the N isn't mistaken for an experiment id. *)
    let rec strip = function
      | "-j" :: _ :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let ids = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  if micro then run_micro ()
  else begin
    Printf.printf "Zeus benchmark harness -- regenerating the paper's evaluation\n";
    Printf.printf "(%s)\n%!" (Zeus_experiments.Exp.scale_note ~quick);
    (match ids with
    | [] -> Zeus_experiments.Experiments.run_all ~quick
    | ids ->
      List.iter
        (fun id ->
          if not (Zeus_experiments.Experiments.run_one ~quick id) then
            Printf.printf "unknown experiment %S; known: %s\n" id
              (String.concat ", " (Zeus_experiments.Experiments.names ())))
        ids);
    emit_locality_json "BENCH_locality.json";
    emit_transport_json "BENCH_transport.json";
    emit_faults_json "BENCH_faults.json";
    emit_detection_json "BENCH_detection.json";
    emit_perf_json "BENCH_perf.json";
    Printf.printf "\nAll experiments done.\n%!"
  end
