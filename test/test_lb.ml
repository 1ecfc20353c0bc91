(* Tests for the Hermes replicated KV and the application-level load
   balancer (§3.1). *)

module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module Hermes = Zeus_lb.Hermes
module Balancer = Zeus_lb.Balancer
module Value = Zeus_store.Value

let tc = Helpers.tc
let check = Alcotest.check

let setup ?(nodes = 3) ?(fabric_config = Fabric.default_config) () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes fabric_config in
  let t = Transport.create f in
  let replicas = List.init nodes (fun i -> i) in
  let hs = List.map (fun n -> Hermes.create ~node:n ~replicas t) replicas in
  List.iteri
    (fun i h ->
      Transport.set_handler t i (fun ~src payload -> ignore (Hermes.handle h ~src payload)))
    hs;
  (e, t, Array.of_list hs)

let write_then_read_everywhere () =
  let e, _, hs = setup () in
  let committed = ref false in
  Hermes.write hs.(0) ~key:1 (Value.of_int 11) (fun () -> committed := true);
  Engine.run e;
  check Alcotest.bool "committed" true !committed;
  Array.iter
    (fun h ->
      check Alcotest.(option int) "local read" (Some 11)
        (Option.map Value.to_int (Hermes.read h 1)))
    hs

let read_blocked_while_invalid () =
  let e, _, hs = setup () in
  Hermes.write hs.(0) ~key:1 (Value.of_int 1) (fun () -> ());
  Engine.run e;
  (* start a write; before it commits, replicas must not serve the key *)
  Hermes.write hs.(0) ~key:1 (Value.of_int 2) (fun () -> ());
  check Alcotest.(option int) "writer invalid during write" None
    (Option.map Value.to_int (Hermes.read hs.(0) 1));
  Engine.run e;
  check Alcotest.(option int) "valid after" (Some 2)
    (Option.map Value.to_int (Hermes.read hs.(0) 1))

let concurrent_writes_converge () =
  let e, _, hs = setup () in
  Hermes.write hs.(0) ~key:1 (Value.of_int 100) (fun () -> ());
  Hermes.write hs.(1) ~key:1 (Value.of_int 200) (fun () -> ());
  Hermes.write hs.(2) ~key:1 (Value.of_int 300) (fun () -> ());
  Engine.run e;
  let v0 = Option.map Value.to_int (Hermes.read hs.(0) 1) in
  let v1 = Option.map Value.to_int (Hermes.read hs.(1) 1) in
  let v2 = Option.map Value.to_int (Hermes.read hs.(2) 1) in
  check Alcotest.(option int) "0=1" v0 v1;
  check Alcotest.(option int) "1=2" v1 v2;
  check Alcotest.bool "some value" true (v0 <> None)

let writes_from_any_replica () =
  let e, _, hs = setup () in
  Hermes.write hs.(2) ~key:9 (Value.of_int 5) (fun () -> ());
  Engine.run e;
  check Alcotest.(option int) "replica-coordinated write" (Some 5)
    (Option.map Value.to_int (Hermes.read hs.(0) 9))

let survives_loss () =
  let e, _, hs =
    setup ~fabric_config:{ Fabric.default_config with Fabric.loss_prob = 0.3 } ()
  in
  for i = 1 to 20 do
    Hermes.write hs.(i mod 3) ~key:i (Value.of_int i) (fun () -> ())
  done;
  Engine.run e;
  for i = 1 to 20 do
    check Alcotest.(option int)
      (Printf.sprintf "key %d" i)
      (Some i)
      (Option.map Value.to_int (Hermes.read hs.(0) i))
  done

let read_wait_retries () =
  let e, _, hs = setup () in
  Hermes.write hs.(0) ~key:1 (Value.of_int 1) (fun () -> ());
  Engine.run e;
  Hermes.write hs.(0) ~key:1 (Value.of_int 2) (fun () -> ());
  let got = ref None in
  Hermes.read_wait hs.(0) 1 (fun v -> got := v);
  Engine.run e;
  check Alcotest.(option int) "waited for validation" (Some 2)
    (Option.map Value.to_int !got)

(* Two writes from one replica before the first commits: the second
   supersedes the first, and both continuations must still fire. *)
let superseded_local_write () =
  let e, _, hs = setup () in
  let first = ref false and second = ref false in
  Hermes.write hs.(0) ~key:1 (Value.of_int 1) (fun () -> first := true);
  Hermes.write hs.(0) ~key:1 (Value.of_int 2) (fun () ->
      check Alcotest.bool "first fires before second" true !first;
      second := true);
  Engine.run e;
  check Alcotest.bool "first write completes" true !first;
  check Alcotest.bool "second write completes" true !second;
  check Alcotest.int "one commit" 1 (Hermes.writes_committed hs.(0));
  Array.iter
    (fun h ->
      check Alcotest.(option int) "later value everywhere" (Some 2)
        (Option.map Value.to_int (Hermes.read h 1)))
    hs

(* ---------- balancer ---------- *)

let balancer_setup () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes:2 Fabric.default_config in
  let t = Transport.create f in
  let mk n = Balancer.create ~node:n ~lb_nodes:[ 0; 1 ] ~backends:[ 10; 11; 12 ] t in
  let b0 = mk 0 and b1 = mk 1 in
  Transport.set_handler t 0 (fun ~src p -> ignore (Balancer.handle b0 ~src p));
  Transport.set_handler t 1 (fun ~src p -> ignore (Balancer.handle b1 ~src p));
  (e, b0, b1)

let balancer_sticky () =
  let e, b0, _ = balancer_setup () in
  let first = ref None and second = ref None in
  Balancer.route b0 ~key:7 (fun d -> first := Some d);
  Engine.run e;
  Balancer.route b0 ~key:7 (fun d -> second := Some d);
  Engine.run e;
  check Alcotest.(option int) "same destination" !first !second;
  check Alcotest.int "one miss" 1 (Balancer.misses b0);
  check Alcotest.int "one hit" 1 (Balancer.hits b0)

let balancer_shared_across_lbs () =
  let e, b0, b1 = balancer_setup () in
  let d0 = ref None and d1 = ref None in
  Balancer.route b0 ~key:7 (fun d -> d0 := Some d);
  Engine.run e;
  Balancer.route b1 ~key:7 (fun d -> d1 := Some d);
  Engine.run e;
  check Alcotest.(option int) "replicated assignment" !d0 !d1

let balancer_reassign () =
  let e, b0, b1 = balancer_setup () in
  let d = ref None in
  Balancer.route b0 ~key:7 (fun x -> d := Some x);
  Engine.run e;
  Balancer.reassign b0 ~key:7 12 (fun () -> ());
  Engine.run e;
  let d' = ref None in
  Balancer.route b1 ~key:7 (fun x -> d' := Some x);
  Engine.run e;
  check Alcotest.(option int) "moved" (Some 12) !d'

let balancer_scale_set () =
  let e, b0, _ = balancer_setup () in
  Balancer.set_backends b0 [ 42 ];
  let d = ref None in
  Balancer.route b0 ~key:99 (fun x -> d := Some x);
  Engine.run e;
  check Alcotest.(option int) "new backend set" (Some 42) !d

let suite =
  [
    tc "hermes: write then read everywhere" write_then_read_everywhere;
    tc "hermes: invalid keys are not served" read_blocked_while_invalid;
    tc "hermes: concurrent writes converge" concurrent_writes_converge;
    tc "hermes: any replica coordinates" writes_from_any_replica;
    tc "hermes: survives 30% loss" survives_loss;
    tc "hermes: read_wait" read_wait_retries;
    tc "hermes: superseded local write completes" superseded_local_write;
    tc "balancer: sticky routing" balancer_sticky;
    tc "balancer: assignments replicated" balancer_shared_across_lbs;
    tc "balancer: reassign" balancer_reassign;
    tc "balancer: backend set changes" balancer_scale_set;
  ]
