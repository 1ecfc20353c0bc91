(* Locality engine (lib/locality): unit coverage of the access log,
   predictor, planner and migrator; properties for the memory bound and
   determinism; and an end-to-end anti-ping-pong integration check. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Loc = Zeus_locality
open Helpers

let qtest = QCheck_alcotest.to_alcotest

(* ---------- access log ---------- *)

let test_log_decay () =
  let log = Loc.Access_log.create ~nodes:2 in
  let half_life = Loc.Access_log.half_life_us in
  Loc.Access_log.record log ~key:1 ~node:0 ~now:0.0;
  let r0 = Loc.Access_log.rate log ~key:1 ~node:0 ~now:0.0 in
  let r1 = Loc.Access_log.rate log ~key:1 ~node:0 ~now:half_life in
  check (Alcotest.float 1e-9) "one half-life halves the rate" (r0 /. 2.0) r1;
  check (Alcotest.float 1e-9) "other node unaffected" 0.0
    (Loc.Access_log.rate log ~key:1 ~node:1 ~now:half_life)

let test_log_top_node () =
  let log = Loc.Access_log.create ~nodes:3 in
  for _ = 1 to 5 do
    Loc.Access_log.record log ~key:7 ~node:2 ~now:10.0
  done;
  Loc.Access_log.record log ~key:7 ~node:0 ~now:10.0;
  (match Loc.Access_log.top_node log ~key:7 ~now:10.0 with
  | Some (n, _) -> check Alcotest.int "hottest accessor wins" 2 n
  | None -> Alcotest.fail "expected a top node");
  check Alcotest.(option (pair int unit |> fun _ -> int)) "untracked key"
    None
    (Option.map fst (Loc.Access_log.top_node log ~key:999 ~now:10.0))

(* ---------- predictor ---------- *)

let test_predictor_directional () =
  let p = Loc.Predictor.create ~nodes:4 in
  let log = Loc.Access_log.create ~nodes:4 in
  Loc.Predictor.note_owner p ~key:5 ~owner:0;
  Loc.Predictor.note_owner p ~key:5 ~owner:1;
  Loc.Predictor.note_owner p ~key:5 ~owner:2;
  match Loc.Predictor.predict p ~log ~key:5 ~now:250.0 with
  | Some pr ->
    check Alcotest.int "trajectory 0,1,2 continues to 3" 3 pr.Loc.Predictor.target;
    check Alcotest.bool "directional pattern fired" true pr.Loc.Predictor.directional
  | None -> Alcotest.fail "expected a directional prediction"

let test_predictor_frequency () =
  let p = Loc.Predictor.create ~nodes:3 in
  let log = Loc.Access_log.create ~nodes:3 in
  for _ = 1 to 9 do
    Loc.Access_log.record log ~key:4 ~node:1 ~now:5.0
  done;
  Loc.Access_log.record log ~key:4 ~node:2 ~now:5.0;
  match Loc.Predictor.predict p ~log ~key:4 ~now:5.0 with
  | Some pr ->
    check Alcotest.int "dominant accessor predicted" 1 pr.Loc.Predictor.target;
    check Alcotest.bool "frequency mode" false pr.Loc.Predictor.directional
  | None -> Alcotest.fail "expected a frequency prediction"

(* ---------- planner ---------- *)

let test_planner_hysteresis () =
  let planner = Loc.Planner.create () in
  let predictor = Loc.Predictor.create ~nodes:2 in
  let log = Loc.Access_log.create ~nodes:2 in
  (* node 1 at 3 accesses vs holder 0 at 2: confident prediction, but under
     the 2x hysteresis bar -> Stay *)
  for _ = 1 to 3 do
    Loc.Access_log.record log ~key:9 ~node:1 ~now:50.0
  done;
  for _ = 1 to 2 do
    Loc.Access_log.record log ~key:9 ~node:0 ~now:50.0
  done;
  (match Loc.Planner.decide planner ~predictor ~log ~key:9 ~holder:0 ~now:50.0 with
  | Loc.Planner.Stay -> ()
  | d -> Alcotest.failf "expected Stay, got %a" Loc.Planner.pp_decision d);
  (* push node 1 past 2x the holder's rate -> Prefetch *)
  for _ = 1 to 3 do
    Loc.Access_log.record log ~key:9 ~node:1 ~now:50.0
  done;
  match Loc.Planner.decide planner ~predictor ~log ~key:9 ~holder:0 ~now:50.0 with
  | Loc.Planner.Prefetch { target; directional } ->
    check Alcotest.int "prefetch to the hotter node" 1 target;
    check Alcotest.bool "frequency-driven" false directional
  | d -> Alcotest.failf "expected Prefetch, got %a" Loc.Planner.pp_decision d

let test_planner_pin_and_expiry () =
  let planner = Loc.Planner.create () in
  (* 4 alternating moves inside the window: thrash, pinned where it landed *)
  Loc.Planner.note_migration planner ~key:3 ~owner:0 ~now:0.0;
  Loc.Planner.note_migration planner ~key:3 ~owner:1 ~now:50.0;
  Loc.Planner.note_migration planner ~key:3 ~owner:0 ~now:100.0;
  check Alcotest.int "no pin before the threshold" 0 (Loc.Planner.pins_set planner);
  Loc.Planner.note_migration planner ~key:3 ~owner:1 ~now:150.0;
  check Alcotest.int "pin after 4 moves between 2 nodes" 1
    (Loc.Planner.pins_set planner);
  check
    Alcotest.(option int)
    "pinned at the landing node" (Some 1)
    (Loc.Planner.pinned planner ~key:3 ~now:200.0);
  (* while pinned: no re-pin, and decide reports the pin *)
  Loc.Planner.note_migration planner ~key:3 ~owner:0 ~now:250.0;
  check Alcotest.int "no re-pin while pinned" 1 (Loc.Planner.pins_set planner);
  let expiry = 150.0 +. Loc.Planner.pin_us in
  check
    Alcotest.(option int)
    "pin expires" None
    (Loc.Planner.pinned planner ~key:3 ~now:(expiry +. 1.0))

(* ---------- migrator (token bucket, through a live cluster) ---------- *)

let locality_on ?(migrator = Loc.Migrator.default_config) () =
  { Loc.Engine.enabled_default with Loc.Engine.migrator }

let cluster_with_locality ?migrator () =
  let config =
    {
      Config.default with
      Config.nodes = 3;
      seed = 7L;
      locality = locality_on ?migrator ();
    }
  in
  Cluster.create ~config ()

let engine_of cluster i =
  match Node.locality (Cluster.node cluster i) with
  | Some e -> e
  | None -> Alcotest.fail "locality engine missing with enabled config"

let test_migrator_rate_limit () =
  let c =
    cluster_with_locality
      ~migrator:{ Loc.Migrator.bucket = 2.0; refill_per_ms = 1.0 }
      ()
  in
  Cluster.populate_n c ~n:6 ~owner_of:(fun _ -> 0) (fun _ -> Value.of_int 0);
  let m = Loc.Engine.migrator (engine_of c 1) in
  check Alcotest.bool "first prefetch admitted" true
    (Loc.Migrator.prefetch m ~key:0 ~k:(fun _ -> ()));
  check Alcotest.bool "second prefetch admitted" true
    (Loc.Migrator.prefetch m ~key:1 ~k:(fun _ -> ()));
  check Alcotest.bool "third prefetch rate-limited" false
    (Loc.Migrator.prefetch m ~key:2 ~k:(fun _ -> ()));
  check Alcotest.int "rate_limited counted" 1 (Loc.Migrator.rate_limited m);
  drain c;
  (* 1 req/ms: two virtual milliseconds refill the bucket *)
  ignore (Engine.schedule (Cluster.engine c) ~after:2000.0 (fun () -> ()));
  Cluster.run c ~until_us:(Engine.now (Cluster.engine c) +. 2001.0);
  check Alcotest.bool "bucket refills with virtual time" true
    (Loc.Migrator.prefetch m ~key:3 ~k:(fun _ -> ()));
  drain c;
  check Alcotest.int "admitted prefetches were issued" 3 (Loc.Migrator.issued m);
  check Alcotest.int "prefetches won ownership" 3 (Loc.Migrator.won m)

(* ---------- integration: anti-ping-pong ---------- *)

let test_pingpong_bounded () =
  let c = cluster_with_locality () in
  Cluster.populate c ~key:9 ~owner:0 (Value.of_int 0);
  (* two frontends fight over key 9 until the planner pins it *)
  for i = 1 to 6 do
    expect_committed "fighting write" (write_txn c (i mod 2) ~keys:[ 9 ] ~value:(Value.of_int i))
  done;
  let planner = Loc.Engine.planner (engine_of c 0) in
  check Alcotest.bool "thrash detected and pinned" true
    (Loc.Planner.pins_set planner >= 1);
  let target =
    match Loc.Engine.route_for_key (engine_of c 0) 9 with
    | Some t -> t
    | None -> Alcotest.fail "pin not visible through route_for_key"
  in
  (* re-routed traffic (what the balancer does with the pin) stops the churn:
     no further ownership movement once both sides execute at the target *)
  let moves_at_pin = Loc.Planner.migrations planner ~key:9 in
  for i = 7 to 16 do
    expect_committed "pinned write" (write_txn c target ~keys:[ 9 ] ~value:(Value.of_int i))
  done;
  check Alcotest.int "no migrations after the pin" moves_at_pin
    (Loc.Planner.migrations planner ~key:9)

let test_disabled_is_seed () =
  (* locality off (the default): no engine is constructed, and the normal
     write path behaves exactly as the seed *)
  let c = default_cluster () in
  check Alcotest.bool "no engine when disabled" true
    (Node.locality (Cluster.node c 0) = None);
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  expect_committed "seed write path" (write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 5));
  check Alcotest.(option int) "value visible" (Some 5) (read_value c 1 1)

(* ---------- properties ---------- *)

let prop_log_bounded =
  QCheck.Test.make ~name:"access_log: tracked keys never exceed capacity"
    ~count:100
    (* key [i] for record [i]: every case brings more than [capacity]
       distinct keys, so every case runs the eviction path *)
    (let cap = Loc.Access_log.capacity in
     QCheck.(list_of_size Gen.((cap + 1) -- (cap + 200)) (int_bound 2)))
    (fun nodes ->
      let log = Loc.Access_log.create ~nodes:3 in
      List.iteri
        (fun i node -> Loc.Access_log.record log ~key:i ~node ~now:(float_of_int i))
        nodes;
      Loc.Access_log.tracked log <= Loc.Access_log.capacity)

let prop_predictor_deterministic =
  QCheck.Test.make ~name:"predictor: identical event feeds agree" ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 10) (int_bound 3)))
    (fun events ->
      let feed () =
        let p = Loc.Predictor.create ~nodes:4 in
        let log = Loc.Access_log.create ~nodes:4 in
        List.iteri
          (fun i (key, owner) ->
            let now = 10.0 *. float_of_int i in
            Loc.Predictor.note_owner p ~key ~owner;
            Loc.Access_log.record log ~key ~node:owner ~now)
          events;
        List.init 11 (fun key ->
            Loc.Predictor.predict p ~log ~key ~now:1000.0)
      in
      feed () = feed ())

let suite =
  [
    tc "access_log: exponential decay" test_log_decay;
    tc "access_log: top_node" test_log_top_node;
    tc "predictor: directional trajectory" test_predictor_directional;
    tc "predictor: frequency fallback" test_predictor_frequency;
    tc "planner: hysteresis" test_planner_hysteresis;
    tc "planner: anti-ping-pong pin + expiry" test_planner_pin_and_expiry;
    tc "migrator: token-bucket rate limit" test_migrator_rate_limit;
    tc "integration: pin ends ping-pong" test_pingpong_bounded;
    tc "disabled config keeps seed behaviour" test_disabled_is_seed;
    qtest prop_log_bounded;
    qtest prop_predictor_deterministic;
  ]
