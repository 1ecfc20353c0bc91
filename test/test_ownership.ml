(* Tests for the reliable ownership protocol (§4), driven through full
   clusters so the arbiters, directory and owner all participate. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Own = Zeus_ownership
module Value = Zeus_store.Value
module Types = Zeus_store.Types

let tc = Helpers.tc
let check = Alcotest.check

let acquire cluster node_id key =
  let result = ref None in
  Node.acquire_ownership (Cluster.node cluster node_id) key (fun r -> result := Some r);
  Helpers.drain cluster;
  !result

(* ---------- failure- and contention-free operation ---------- *)

let reader_acquires () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  (match acquire c 2 1 with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "acquire failed");
  check Alcotest.string "new owner" "owner" (Helpers.role_name (Node.role (Cluster.node c 2) 1));
  check Alcotest.string "old owner demoted" "reader"
    (Helpers.role_name (Node.role (Cluster.node c 0) 1));
  Helpers.expect_invariants c

let nonreplica_acquires_with_data () =
  (* 4 nodes, 2-way replication: node 3 is a non-replica and must receive
     the value inside the owner's ACK *)
  let config = { Config.default with Config.nodes = 4; replication_degree = 2 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 123);
  check Alcotest.string "initially non-replica" "none"
    (Helpers.role_name (Node.role (Cluster.node c 3) 1));
  (match acquire c 3 1 with Some (Ok ()) -> () | _ -> Alcotest.fail "acquire");
  check Alcotest.string "owns" "owner" (Helpers.role_name (Node.role (Cluster.node c 3) 1));
  check Alcotest.(option int) "data travelled" (Some 123)
    (Option.map Value.to_int
       (Option.map (fun o -> o.Zeus_store.Obj.data) (Helpers.obj_at c 3 1)))

let ownership_latency_is_1_5_rtt () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  ignore (acquire c 2 1);
  let lat = Node.ownership_latency (Cluster.node c 2) in
  let mean = Zeus_sim.Stats.Samples.mean lat in
  (* 1.5 RTT at 4 µs one-way = 12 µs, plus processing; must stay well under
     2 RTT + slack *)
  if mean < 8.0 || mean > 30.0 then Alcotest.failf "unexpected latency %f" mean

let repeated_local_use_no_requests () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  for _ = 1 to 5 do
    Helpers.expect_committed "local write"
      (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 9))
  done;
  check Alcotest.int "no ownership traffic" 0
    (Own.Agent.requests_started (Node.ownership_agent (Cluster.node c 0)))

let write_triggers_acquire_once () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Helpers.expect_committed "remote write"
    (Helpers.write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 6));
  check Alcotest.int "one request" 1
    (Own.Agent.requests_started (Node.ownership_agent (Cluster.node c 1)));
  (* subsequent writes are local *)
  Helpers.expect_committed "now local"
    (Helpers.write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 7));
  check Alcotest.int "still one request" 1
    (Own.Agent.requests_started (Node.ownership_agent (Cluster.node c 1)))

let add_reader_request () =
  let config = { Config.default with Config.nodes = 4; replication_degree = 2 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  let result = ref None in
  Node.add_reader (Cluster.node c 3) 1 (fun r -> result := Some r);
  Helpers.drain c;
  (match !result with Some (Ok ()) -> () | _ -> Alcotest.fail "add_reader");
  check Alcotest.string "is reader" "reader"
    (Helpers.role_name (Node.role (Cluster.node c 3) 1));
  check Alcotest.string "owner unchanged" "owner"
    (Helpers.role_name (Node.role (Cluster.node c 0) 1));
  (* the new reader can serve read-only transactions locally *)
  check Alcotest.(option int) "ro read" (Some 5) (Helpers.read_value c 3 1)

let trim_restores_replication_degree () =
  (* non-replica acquire grows the replica set; auto-trim shrinks it back *)
  let config = { Config.default with Config.nodes = 4; replication_degree = 2 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  (match acquire c 3 1 with Some (Ok ()) -> () | _ -> Alcotest.fail "acquire");
  Helpers.drain c;
  let holders =
    List.filter
      (fun i -> Zeus_store.Table.mem (Node.table (Cluster.node c i)) 1)
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "back to 2 replicas" 2 (List.length holders);
  Helpers.expect_invariants c

let ping_pong_ownership () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  for i = 1 to 12 do
    let dst = i mod 3 in
    match acquire c dst 1 with
    | Some (Ok ()) -> ()
    | _ -> Alcotest.failf "acquire %d failed" i
  done;
  Helpers.expect_invariants c

(* ---------- contention ---------- *)

let concurrent_acquires_single_winner () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  let r1 = ref None and r2 = ref None in
  (* both requests start in the same microsecond through different drivers *)
  Node.acquire_ownership (Cluster.node c 1) 1 (fun r -> r1 := Some r);
  Node.acquire_ownership (Cluster.node c 2) 1 (fun r -> r2 := Some r);
  Helpers.drain c;
  let owners =
    List.filter
      (fun i -> Node.role (Cluster.node c i) 1 = Some Types.Owner)
      [ 0; 1; 2 ]
  in
  check Alcotest.int "exactly one owner" 1 (List.length owners);
  Helpers.expect_invariants c

let contention_storm () =
  let c = Helpers.default_cluster ~nodes:6 () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  let outcomes = ref [] in
  for i = 1 to 5 do
    Node.acquire_ownership (Cluster.node c i) 1 (fun r -> outcomes := r :: !outcomes)
  done;
  Helpers.drain c;
  let owners =
    List.filter
      (fun i -> Node.role (Cluster.node c i) 1 = Some Types.Owner)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check Alcotest.int "single owner after storm" 1 (List.length owners);
  Helpers.expect_invariants c

let busy_owner_nacks () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  (* A transaction holds the object mid-execution on node 0 while node 1
     requests ownership: the owner must NACK, and the requester's
     transaction-level retry eventually wins. *)
  let n0 = Cluster.node c 0 in
  let blocked = ref false in
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.write ctx 1 (Value.of_int 50) (fun () ->
          (* stall the transaction long enough for the request to arrive *)
          ignore
            (Engine.schedule (Cluster.engine c) ~after:200.0 (fun () ->
                 blocked := true;
                 commit ()))))
    (fun _ -> ());
  let result = ref None in
  ignore
    (Engine.schedule (Cluster.engine c) ~after:20.0 (fun () ->
         Node.acquire_ownership (Cluster.node c 1) 1 (fun r -> result := Some r)));
  Helpers.drain c;
  check Alcotest.bool "txn finished" true !blocked;
  (match !result with
  | Some (Error _) -> () (* NACKed while busy: acceptable *)
  | Some (Ok ()) ->
    (* or the request landed after commit+replication: then 1 owns it *)
    check Alcotest.string "eventually owner" "owner"
      (Helpers.role_name (Node.role (Cluster.node c 1) 1))
  | None -> Alcotest.fail "no outcome");
  Helpers.expect_invariants c

let unknown_key_nacked () =
  let c = Helpers.default_cluster () in
  match acquire c 1 999 with
  | Some (Error Own.Messages.Unknown_key) -> ()
  | _ -> Alcotest.fail "expected unknown-key NACK"

(* ---------- failures ---------- *)

let owner_dies_reader_takes_over () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Helpers.expect_committed "seed write"
    (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 42));
  Cluster.kill c 0;
  Helpers.drain c;
  (* node 1 (a reader) writes: it must acquire ownership without the dead
     owner participating *)
  Helpers.expect_committed "write after owner death"
    (Helpers.write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 43));
  check Alcotest.string "new owner" "owner"
    (Helpers.role_name (Node.role (Cluster.node c 1) 1));
  check Alcotest.(option int) "value survived" (Some 43) (Helpers.read_value c 2 1);
  Helpers.expect_invariants c

let requester_dies_mid_request () =
  let config = { Config.default with Config.nodes = 4; replication_degree = 2 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  (* node 3 requests, then dies immediately: arb-replay must unblock the
     arbiters, and the object must remain usable *)
  Node.acquire_ownership (Cluster.node c 3) 1 (fun _ -> ());
  ignore (Engine.schedule (Cluster.engine c) ~after:6.0 (fun () -> Cluster.kill c 3));
  Helpers.drain c ~max_us:200_000.0;
  Helpers.expect_committed "survivors can still write"
    (Helpers.write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 7));
  Helpers.expect_invariants c

let directory_node_dies () =
  let config = { Config.default with Config.nodes = 4 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:3 (Value.of_int 5);
  Cluster.kill c 2;
  (* node 2 is a directory replica *)
  Helpers.drain c;
  (match acquire c 0 1 with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "acquire with 2 live directory replicas");
  Helpers.expect_invariants c

let driver_dies_mid_arbitration () =
  let config = { Config.default with Config.nodes = 4 } in
  let c = Cluster.create ~config () in
  Cluster.populate c ~key:1 ~owner:3 (Value.of_int 5);
  (* node 3 requests via some directory node; kill directory node 1 just
     after issuing — whichever node drove it, arb-replay must converge *)
  Node.acquire_ownership (Cluster.node c 0) 1 (fun _ -> ());
  ignore (Engine.schedule (Cluster.engine c) ~after:3.0 (fun () -> Cluster.kill c 1));
  Helpers.drain c ~max_us:300_000.0;
  Helpers.expect_committed "post-failure write"
    (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 8));
  Helpers.expect_invariants c

let epoch_filtering () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Cluster.kill c 2;
  Helpers.drain c;
  (* requests keep working in the new epoch *)
  (match acquire c 1 1 with Some (Ok ()) -> () | _ -> Alcotest.fail "new-epoch acquire");
  Helpers.expect_invariants c

(* ---------- view change: replay checks in key order ---------- *)

(* A view change arms one replay check per pending arbitration.  Pendings
   registered in shuffled key order — dense, negative and spilled keys
   alike — must be armed in ascending key order, so timer tokens and the
   order of same-instant timers never depend on the directory's layout. *)
let view_change_arms_in_key_order () =
  let module C = Own.Core in
  let module D = Own.Directory in
  let max_dense = Zeus_store.Dense_map.max_dense in
  let config = { Config.default with Config.nodes = 3 } in
  let dir key = Config.dir_nodes_for config ~key in
  let st = C.create ~self:0 ~nodes:3 () in
  let keys = [| 0; 1; 2; 7; 40; 1023; 5000; -3; -1; max_dense; max_dense + 17 |] in
  Zeus_sim.Rng.shuffle (Zeus_sim.Rng.create 7L) keys;
  let replicas = Zeus_store.Replicas.v ~owner:1 ~readers:[ 2 ] in
  Array.iter
    (fun key ->
      ignore (C.handle ~dir st (C.Api_seed { key; replicas }));
      let e = D.find (C.directory st) key in
      if e == D.dummy then Alcotest.failf "key %d not seeded" key;
      D.set_pending e
        {
          D.req_id = { Own.Messages.origin = 1; seq = key };
          o_ts = Zeus_store.Ots.next Zeus_store.Ots.zero ~node:1;
          base_ts = Zeus_store.Ots.zero;
          new_replicas = replicas;
          kind = Own.Messages.Acquire;
          requester = 1;
          arbiters = [ 0; 1; 2 ];
          data_from = None;
          driving = false;
          born = 0.0;
        })
    keys;
  let live = [| true; true; false |] in
  let env = { C.epoch = 1; live; self_alive = true; trace_on = false } in
  let _, effs = C.handle ~dir st (C.View_change { view_epoch = 1; live; env }) in
  let armed =
    List.filter_map
      (function C.Set_timer { kind = C.T_replay { key; _ }; _ } -> Some key | _ -> None)
      effs
  in
  check Alcotest.(list int) "replay checks in ascending key order"
    (List.sort compare (Array.to_list keys))
    armed

(* ---------- view change: open requests fail in seq order ---------- *)

(* A view change fails every open request.  With forty requests open and
   every third already NACKed (holes in the seq window), the failures
   come out in ascending seq order, and each request's timeout is
   cancelled before its caller is unblocked. *)
let view_change_fails_requests_in_seq_order () =
  let module C = Own.Core in
  let module M = Own.Messages in
  let config = { Config.default with Config.nodes = 3 } in
  let dir key = Config.dir_nodes_for config ~key in
  let st = C.create ~self:2 ~nodes:3 () in
  let env = { C.epoch = 0; live = [| true; true; true |]; self_alive = true;
              trace_on = false } in
  let timers = Hashtbl.create 64 in
  for key = 0 to 39 do
    let _, effs =
      C.handle ~dir st (C.Api_request { key; kind = M.Acquire; facts = C.no_facts; env; now = 0.0 })
    in
    List.iter
      (function
        | C.Set_timer { token; kind = C.T_timeout { seq; _ }; _ } -> Hashtbl.replace timers seq token
        | _ -> ())
      effs
  done;
  let nacked = List.filter (fun seq -> seq mod 3 = 1) (List.init 40 Fun.id) in
  List.iter
    (fun seq ->
      let payload =
        M.O_nack { req_id = { M.origin = 2; seq }; key = seq; o_ts = None; reason = M.Busy;
                   epoch = 0 }
      in
      ignore (C.handle ~dir st (C.Deliver { src = 0; payload; facts = C.no_facts; env; now = 0.0 })))
    nacked;
  let live = [| true; false; true |] in
  let _, effs =
    C.handle ~dir st
      (C.View_change { view_epoch = 1; live; env = { env with C.epoch = 1; live } })
  in
  let unblocked =
    List.filter_map (function C.Unblock { seq; _ } -> Some seq | _ -> None) effs
  in
  check Alcotest.(list int) "open requests fail in ascending seq order"
    (List.filter (fun seq -> not (List.mem seq nacked)) (List.init 40 Fun.id))
    unblocked;
  let position p =
    let rec go i = function [] -> -1 | e :: rest -> if p e then i else go (i + 1) rest in
    go 0 effs
  in
  List.iter
    (fun seq ->
      let tok = Hashtbl.find timers seq in
      let cancel = position (function C.Cancel_timer { token } -> token = tok | _ -> false)
      and unblock = position (function C.Unblock { seq = s; _ } -> s = seq | _ -> false) in
      if not (cancel >= 0 && cancel < unblock) then
        Alcotest.failf "request %d: timeout cancelled at %d, caller unblocked at %d" seq cancel
          unblock)
    unblocked

(* ---------- replay timers: a snapshot only while the pending is open ---------- *)

(* Node 1, a directory replica holding a copy of key 5, buffers node 0's
   arbitration and arms a replay check.  Fired while the arbitration is
   pending, the timer samples the copy; fired after the VAL applied it,
   it samples nothing (the core would not read it). *)
let replay_timer_snapshot_only_while_pending () =
  let module C = Own.Core in
  let module A = Own.Agent in
  let module M = Own.Messages in
  let module Ots = Zeus_store.Ots in
  let module Replicas = Zeus_store.Replicas in
  let config = { Config.default with Config.nodes = 3 } in
  let dir key = Config.dir_nodes_for config ~key in
  let key = 5 in
  let st = C.create ~self:1 ~nodes:3 () in
  let table = Zeus_store.Table.create ~node:1 in
  let replicas = Replicas.v ~owner:0 ~readers:[ 1 ] in
  Zeus_store.Table.install table
    (Zeus_store.Obj.create ~key ~role:Types.Reader ~version:3 (Value.of_int 9));
  ignore (C.handle ~dir st (C.Api_seed { key; replicas }));
  let env = { C.epoch = 0; live = [| true; true; true |]; self_alive = true;
              trace_on = false } in
  let o_ts = Ots.next Ots.zero ~node:0 in
  let inv =
    M.O_inv
      { req_id = { M.origin = 2; seq = 0 }; key; o_ts; base_ts = Ots.zero;
        new_replicas = Replicas.promote replicas ~new_owner:2; kind = M.Acquire; requester = 2;
        arbiters = [ 0; 1 ]; data_from = Some 0; recovery = false; driver = 0; epoch = 0 }
  in
  let _, effs =
    C.handle ~dir st (C.Deliver { src = 0; payload = inv; facts = A.facts st table inv; env; now = 0.0 })
  in
  let kind =
    match
      List.find_map
        (function C.Set_timer { kind = C.T_replay _ as kind; _ } -> Some kind | _ -> None)
        effs
    with
    | Some kind -> kind
    | None -> Alcotest.fail "no replay check armed"
  in
  (match (A.timer_facts st table kind).C.f_snapshot with
  | Some { M.value; t_version } ->
    check Alcotest.int "snapshot version" 3 t_version;
    check Alcotest.int "snapshot value" 9 (Value.to_int value)
  | None -> Alcotest.fail "no snapshot while the arbitration is pending");
  let value = M.O_val { key; o_ts; epoch = 0 } in
  ignore (C.handle ~dir st (C.Deliver { src = 0; payload = value; facts = C.no_facts; env; now = 0.0 }));
  check Alcotest.bool "pending applied" true (C.pending_ts st key = None);
  check Alcotest.bool "no snapshot after the VAL" true
    ((A.timer_facts st table kind).C.f_snapshot = None)

(* ---------- side maps: memory follows the entries held ---------- *)

(* Node 1, an arbiter but not a directory replica of key 1,000,000, buffers
   node 0's arbitration for it in its side map; its replay check, fired
   with the arbitration still pending, starts a replay.  Neither table may
   grow with the key: dense arrays up to it would hold a million slots
   (8 MB) each. *)
let side_maps_follow_entries () =
  let module C = Own.Core in
  let module M = Own.Messages in
  let module Ots = Zeus_store.Ots in
  let module Replicas = Zeus_store.Replicas in
  let key = 1_000_000 in
  let dir _ = [ 0; 2 ] in
  let st = C.create ~self:1 ~nodes:3 () in
  let env = { C.epoch = 0; live = [| true; true; true |]; self_alive = true;
              trace_on = false } in
  let words () = Stdlib.Obj.reachable_words (Stdlib.Obj.repr st) in
  let before = words () in
  let inv =
    M.O_inv
      { req_id = { M.origin = 0; seq = 0 }; key; o_ts = Ots.next Ots.zero ~node:0;
        base_ts = Ots.zero; new_replicas = Replicas.v ~owner:0 ~readers:[ 1 ];
        kind = M.Acquire; requester = 0; arbiters = [ 0; 1 ]; data_from = None;
        recovery = false; driver = 0; epoch = 0 }
  in
  let _, effs = C.handle ~dir st (C.Deliver { src = 0; payload = inv; facts = C.no_facts; env; now = 0.0 }) in
  let token, kind =
    match
      List.find_map
        (function
          | C.Set_timer { token; kind = C.T_replay _ as kind; _ } -> Some (token, kind)
          | _ -> None)
        effs
    with
    | Some tk -> tk
    | None -> Alcotest.fail "no replay check armed"
  in
  ignore (C.handle ~dir st (C.Timer_fire { token; kind; facts = C.no_facts; env }));
  check Alcotest.bool "replay started" true (C.has_replay st key);
  let grown = words () - before in
  if grown > 2_048 then
    Alcotest.failf "one replay of key %d grew the core by %d words (bound 2048)" key grown

let suite =
  [
    tc "reader acquires ownership (1.5 RTT path)" reader_acquires;
    tc "non-replica acquire ships the value" nonreplica_acquires_with_data;
    tc "ownership latency in the expected band" ownership_latency_is_1_5_rtt;
    tc "local use never invokes the protocol" repeated_local_use_no_requests;
    tc "first remote write acquires exactly once" write_triggers_acquire_once;
    tc "add-reader request" add_reader_request;
    tc "auto-trim restores replication degree (§6.2)" trim_restores_replication_degree;
    tc "ownership ping-pong stays consistent" ping_pong_ownership;
    tc "concurrent requests: single winner" concurrent_acquires_single_winner;
    tc "five-way contention storm" contention_storm;
    tc "busy owner NACKs (pending transaction)" busy_owner_nacks;
    tc "unknown key NACKed" unknown_key_nacked;
    tc "owner dies: reader takes over on next write" owner_dies_reader_takes_over;
    tc "requester dies mid-request (arb-replay)" requester_dies_mid_request;
    tc "directory replica dies" directory_node_dies;
    tc "node dies mid-arbitration" driver_dies_mid_arbitration;
    tc "epoch change filters stale requests" epoch_filtering;
    tc "view change arms replay checks in key order" view_change_arms_in_key_order;
    tc "view change fails open requests in seq order" view_change_fails_requests_in_seq_order;
    tc "replay timer snapshots only a pending arbitration" replay_timer_snapshot_only_while_pending;
    tc "side maps: memory follows the entries held" side_maps_follow_entries;
  ]
