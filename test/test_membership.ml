(* Tests for the lease-based membership service. *)

module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module View = Zeus_membership.View
module Service = Zeus_membership.Service
module Detector = Zeus_membership.Detector

let tc = Helpers.tc
let check = Alcotest.check

let setup ?(nodes = 3) () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes Fabric.default_config in
  let t = Transport.create f in
  let m = Service.create t in
  (e, f, m)

(* Oracle mode: a killed node's excluding view reaches every live node by
   this long after the kill. *)
let installed_us = Service.detect_us +. Service.lease_us +. Service.skew_us

(* Run [e] until a view change started now has reached every node. *)
let settle e = Engine.run ~until:(Engine.now e +. installed_us +. 100.0) e

(* Detected-mode fixture: fast heartbeats, so the whole suspect -> lease ->
   install pipeline fits in a few virtual ms. *)
let det_config =
  { Detector.period_us = 50.0; min_timeout_us = 200.0; max_timeout_us = 400.0 }

let setup_detected ?(nodes = 4) () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes Fabric.default_config in
  let t = Transport.create f in
  let m = Service.create ~mode:Service.Detected ~detection:det_config t in
  (e, f, m)

let view_ops () =
  let v = View.initial ~nodes:3 in
  check Alcotest.int "epoch 0" 0 v.View.epoch;
  check Alcotest.(list int) "all live" [ 0; 1; 2 ] (View.live_list v);
  let v1 = View.without v 1 in
  check Alcotest.int "epoch bumps" 1 v1.View.epoch;
  check Alcotest.(list int) "1 dead" [ 0; 2 ] (View.live_list v1);
  check Alcotest.bool "is_live" false (View.is_live v1 1);
  let v2 = View.with_node v1 1 in
  check Alcotest.(list int) "rejoined" [ 0; 1; 2 ] (View.live_list v2);
  check Alcotest.int "epoch 2" 2 v2.View.epoch

let kill_updates_after_lease () =
  let e, f, m = setup () in
  Service.kill m 1;
  check Alcotest.bool "fabric crash immediate" false (Fabric.is_alive f 1);
  (* detection is over, the lease is not *)
  Engine.run ~until:(Service.detect_us +. (Service.lease_us /. 2.0)) e;
  check Alcotest.int "not yet (lease)" 0 (Service.view m).View.epoch;
  settle e;
  check Alcotest.int "epoch bumped" 1 (Service.view m).View.epoch;
  check Alcotest.bool "view excludes" false (View.is_live (Service.view m) 1)

let nodes_get_view_with_skew () =
  let e, _, m = setup () in
  let seen = ref [] in
  Service.subscribe m 0 (fun v -> seen := v.View.epoch :: !seen);
  Service.subscribe m 2 (fun v -> seen := (100 + v.View.epoch) :: !seen);
  Service.kill m 1;
  settle e;
  check Alcotest.bool "node0 notified" true (List.mem 1 !seen);
  check Alcotest.bool "node2 notified" true (List.mem 101 !seen);
  check Alcotest.int "node epoch" 1 (Service.epoch_at m 0)

let dead_node_not_notified () =
  let e, _, m = setup () in
  let fired = ref false in
  Service.subscribe m 1 (fun _ -> fired := true);
  Service.kill m 1;
  settle e;
  check Alcotest.bool "dead node silent" false !fired

let rejoin_bumps_epoch () =
  let e, f, m = setup () in
  Service.kill m 1;
  settle e;
  Service.rejoin m 1;
  settle e;
  check Alcotest.int "epoch 2" 2 (Service.view m).View.epoch;
  check Alcotest.bool "alive again" true (Fabric.is_alive f 1);
  check Alcotest.bool "in view" true (View.is_live (Service.view m) 1)

let two_kills_two_epochs () =
  let e, _, m = setup () in
  Service.kill m 1;
  settle e;
  Service.kill m 2;
  settle e;
  check Alcotest.int "epoch 2" 2 (Service.view m).View.epoch;
  check Alcotest.(list int) "only node0" [ 0 ] (View.live_list (Service.view m))

(* ---------- failure detector ---------------------------------------------- *)

let detector_grace_then_adapts () =
  let cfg =
    { Detector.period_us = 100.0; min_timeout_us = 150.0; max_timeout_us = 1_000.0 }
  in
  let d = Detector.create cfg ~node:0 ~nodes:2 ~now:0.0 in
  check (Alcotest.float 1e-6) "grace window: timeout at the cap" 1_000.0
    (Detector.timeout_us d ~peer:1);
  let now = ref 0.0 in
  for _ = 1 to 10 do
    now := !now +. 100.0;
    Detector.note_arrival d ~src:1 ~now:!now
  done;
  (* Regular 100 µs arrivals: zero deviation, so the timeout sits on the
     floor — well below the cap. *)
  check (Alcotest.float 1e-6) "steady arrivals: timeout on the floor" 150.0
    (Detector.timeout_us d ~peer:1);
  check Alcotest.bool "fresh traffic: not suspected" false
    (Detector.suspects d ~peer:1 ~now:!now);
  check Alcotest.bool "long silence: suspected" true
    (Detector.suspects d ~peer:1 ~now:(!now +. 1_200.0))

let detector_widens_under_jitter () =
  let cfg =
    { Detector.period_us = 100.0; min_timeout_us = 150.0; max_timeout_us = 1_000.0 }
  in
  let d = Detector.create cfg ~node:0 ~nodes:2 ~now:0.0 in
  let now = ref 0.0 in
  for i = 1 to 20 do
    (* Alternate 60/140 µs gaps: same mean, large deviation. *)
    now := !now +. (if i mod 2 = 0 then 140.0 else 60.0);
    Detector.note_arrival d ~src:1 ~now:!now
  done;
  let t = Detector.timeout_us d ~peer:1 in
  check Alcotest.bool "jitter widens the timeout above the floor" true (t > 150.0);
  check Alcotest.bool "but stays under the cap" true (t <= 1_000.0)

(* ---------- detected mode -------------------------------------------------- *)

let detected_fault_free_no_suspicions () =
  let e, _, m = setup_detected () in
  Engine.run ~until:5_000.0 e;
  let s = Service.det_stats m in
  check Alcotest.int "no suspicions without a fault" 0 s.Service.suspicions;
  check Alcotest.int "no false suspicions" 0 s.Service.false_suspicions;
  check Alcotest.int "no views installed" 0 s.Service.views_installed;
  check Alcotest.int "epoch still 0" 0 (Service.view m).View.epoch;
  check Alcotest.bool "heartbeats flowed" true (s.Service.heartbeats > 0)

let detected_crash_installs_within_bound () =
  let e, f, m = setup_detected () in
  Engine.run ~until:1_000.0 e;
  let fault_at = Engine.now e in
  Service.kill m 3;
  check Alcotest.bool "fabric crash immediate" false (Fabric.is_alive f 3);
  check Alcotest.int "no oracle announcement" 0 (Service.view m).View.epoch;
  let installed_at = ref None in
  Service.subscribe m 0 (fun v ->
      if !installed_at = None && not (View.is_live v 3) then
        installed_at := Some (Engine.now e));
  let bound = Service.detection_bound_us m in
  Engine.run ~until:(fault_at +. bound +. 100.0) e;
  (match !installed_at with
  | None -> Alcotest.fail "crash was never detected"
  | Some at ->
    check Alcotest.bool
      (Printf.sprintf "detected in %.0f us <= bound %.0f us" (at -. fault_at) bound)
      true
      (at -. fault_at <= bound));
  check Alcotest.bool "view excludes the crashed node" false
    (View.is_live (Service.view m) 3);
  let s = Service.det_stats m in
  check Alcotest.int "a real crash is not a false suspicion" 0
    s.Service.false_suspicions;
  check Alcotest.bool "survivors suspected it" true (s.Service.suspicions >= 2)

let detected_eviction_averted_by_heal () =
  let e, f, m = setup_detected () in
  Engine.run ~until:1_000.0 e;
  (* Transient full isolation of node 3 — the paper's "unreliable
     detection" case: silence long enough to be suspected, healed before
     the lease runs out, so the node keeps its state and its place. *)
  List.iter
    (fun d ->
      Fabric.partition_oneway f ~src:3 ~dst:d;
      Fabric.partition_oneway f ~src:d ~dst:3)
    [ 0; 1; 2 ];
  (* Long enough for the suspicion quorum to form (timeout floor 200 µs),
     short of the lease expiry that follows it. *)
  Engine.run ~until:(Engine.now e +. 350.0) e;
  check Alcotest.bool "quorum suspicion formed" true
    (Service.suspected m ~by:0 3 || Service.suspected m ~by:1 3
   || Service.suspected m ~by:2 3);
  List.iter
    (fun d ->
      Fabric.heal_oneway f ~src:3 ~dst:d;
      Fabric.heal_oneway f ~src:d ~dst:3)
    [ 0; 1; 2 ];
  Engine.run ~until:(Engine.now e +. Service.lease_us +. 2_000.0) e;
  let s = Service.det_stats m in
  check Alcotest.int "no eviction: epoch unchanged" 0 (Service.view m).View.epoch;
  check Alcotest.bool "lease expiry was averted" true (s.Service.evictions_averted >= 1);
  check Alcotest.bool "suspicions were retracted" true (s.Service.retractions >= 1);
  check Alcotest.int "no fence" 0 s.Service.fences

let detected_oneway_partition_fences_and_rejoins () =
  let e, f, m = setup_detected () in
  Engine.run ~until:1_000.0 e;
  (* Node 3 can hear everyone but nobody hears node 3: a gray failure the
     oracle mode cannot even express. *)
  List.iter (fun d -> Fabric.partition_oneway f ~src:3 ~dst:d) [ 0; 1; 2 ];
  let part_at = Engine.now e in
  Engine.run ~until:(part_at +. Service.detection_bound_us m +. 100.0) e;
  check Alcotest.bool "silent-to-others node evicted" false
    (View.is_live (Service.view m) 3);
  let s = Service.det_stats m in
  check Alcotest.bool "eviction was a false suspicion" true
    (s.Service.false_suspicions >= 1);
  (* The fence force-crashed it at the fabric.  The eviction took at least
     the 200 us timeout floor plus the 2 ms lease, so the automatic rejoin,
     [rejoin_backoff_us] after the fence, is still pending. *)
  check Alcotest.bool "the live node was fenced" true (s.Service.fences >= 1);
  check Alcotest.bool "fenced node down until its backoff ends" false (Fabric.is_alive f 3);
  (* Heal the links; the automatic post-fence rejoin then sticks. *)
  List.iter (fun d -> Fabric.heal_oneway f ~src:3 ~dst:d) [ 0; 1; 2 ];
  Engine.run ~until:(Engine.now e +. Service.rejoin_backoff_us +. 1_500.0) e;
  check Alcotest.bool "rejoined after heal" true (View.is_live (Service.view m) 3);
  check Alcotest.bool "alive after heal" true (Fabric.is_alive f 3);
  let s1 = Service.det_stats m in
  (* Stable from here: another window adds no fences and no view changes. *)
  Engine.run ~until:(Engine.now e +. 3_000.0) e;
  let s2 = Service.det_stats m in
  check Alcotest.int "no further fences once healed" s1.Service.fences
    s2.Service.fences;
  check Alcotest.int "no further view churn once healed" s1.Service.views_installed
    s2.Service.views_installed;
  check Alcotest.bool "still in the view" true (View.is_live (Service.view m) 3)

let subscribe_preserves_order () =
  let e, _, m = setup () in
  let order = ref [] in
  for i = 0 to 4 do
    Service.subscribe m 0 (fun _ -> order := i :: !order)
  done;
  Service.kill m 1;
  settle e;
  check Alcotest.(list int) "subscribers fire in subscription order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let suite =
  [
    tc "view: algebra" view_ops;
    tc "kill: view installed after detection + lease" kill_updates_after_lease;
    tc "subscribers notified with skew" nodes_get_view_with_skew;
    tc "dead node gets no view" dead_node_not_notified;
    tc "rejoin" rejoin_bumps_epoch;
    tc "two failures, two epochs" two_kills_two_epochs;
    tc "detector: grace window then adaptive timeout" detector_grace_then_adapts;
    tc "detector: jitter widens the timeout" detector_widens_under_jitter;
    tc "detected: fault-free run raises nothing" detected_fault_free_no_suspicions;
    tc "detected: crash detected within the bound" detected_crash_installs_within_bound;
    tc "detected: heal before lease expiry averts eviction"
      detected_eviction_averted_by_heal;
    tc "detected: one-way partition fenced, rejoins after heal"
      detected_oneway_partition_fences_and_rejoins;
    tc "subscribe: order preserved" subscribe_preserves_order;
  ]
