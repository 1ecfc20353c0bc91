(* Tests for the reliable commit protocol (§5): replication, pipelining,
   partial streams, and replay after coordinator crashes. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Com = Zeus_commit
module Value = Zeus_store.Value
module Table = Zeus_store.Table
module Types = Zeus_store.Types

let tc = Helpers.tc
let check = Alcotest.check

let obj_at = Helpers.obj_at

let value_at c node key =
  Option.map (fun o -> Value.to_int o.Zeus_store.Obj.data) (obj_at c node key)

let replicates_to_followers () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Helpers.expect_committed "write" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 42));
  List.iter
    (fun n ->
      check Alcotest.(option int) (Printf.sprintf "replica %d" n) (Some 42) (value_at c n 1))
    [ 0; 1; 2 ];
  (* all replicas validated after drain *)
  List.iter
    (fun n ->
      match obj_at c n 1 with
      | Some o -> check Alcotest.bool "valid" true (o.Zeus_store.Obj.t_state = Types.T_valid)
      | None -> Alcotest.fail "missing replica")
    [ 0; 1; 2 ]

let multi_object_atomic () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 0);
  Helpers.expect_committed "multi write"
    (Helpers.write_txn c 0 ~keys:[ 1; 2 ] ~value:(Value.of_int 9));
  List.iter
    (fun n ->
      check Alcotest.(option int) "k1" (Some 9) (value_at c n 1);
      check Alcotest.(option int) "k2" (Some 9) (value_at c n 2))
    [ 1; 2 ]

let pipelining_does_not_block () =
  (* K back-to-back transactions on the same object from one thread: the
     k-th local commit must not wait for the (k-1)-th reliable commit *)
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let n0 = Cluster.node c 0 in
  let commit_times = ref [] in
  let rec chain i =
    if i < 8 then
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
              commit ()))
        (fun outcome ->
          Helpers.expect_committed "chain" outcome;
          commit_times := Engine.now (Cluster.engine c) :: !commit_times;
          chain (i + 1))
  in
  chain 0;
  Helpers.drain c;
  check Alcotest.int "all committed" 8 (List.length !commit_times);
  (* with a ~12 µs replication RTT, 8 blocking commits would need ~100 µs;
     pipelined they complete in a fraction of that *)
  let last = List.hd !commit_times in
  if last > 40.0 then Alcotest.failf "commits were not pipelined: %.1f us" last;
  check Alcotest.(option int) "final value replicated" (Some 8) (value_at c 1 1)

let followers_apply_in_pipeline_order () =
  (* heavy reordering on the fabric; versions must still end up exact *)
  let fabric =
    { Zeus_net.Fabric.default_config with
      Zeus_net.Fabric.delay_prob = 0.5;
      delay_extra_us = 30.0;
    }
  in
  let c = Helpers.default_cluster ~fabric () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let n0 = Cluster.node c 0 in
  let done_count = ref 0 in
  let rec chain i =
    if i < 20 then
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
              commit ()))
        (fun _ ->
          incr done_count;
          chain (i + 1))
  in
  chain 0;
  Helpers.drain c;
  check Alcotest.int "all committed" 20 !done_count;
  List.iter
    (fun n ->
      check Alcotest.(option int) (Printf.sprintf "replica %d converged" n) (Some 20)
        (value_at c n 1))
    [ 0; 1; 2 ];
  Helpers.expect_invariants c

let partial_stream_follower () =
  (* node 0 owns two objects with different reader sets; each follower sees
     only part of the pipeline and needs the prev-VAL machinery (§5.2) *)
  let config = { Config.default with Config.nodes = 4; replication_degree = 2 } in
  let c = Cluster.create ~config () in
  (* key 1 replicated on {0,1}; key 2 on {0,2}: install by hand *)
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 0);
  (* move key 2's reader from node 1 to node 2 *)
  let n0 = Cluster.node c 0 in
  let r = ref None in
  Node.add_reader (Cluster.node c 2) 2 (fun x -> r := Some x);
  Helpers.drain c;
  (match !r with Some (Ok ()) -> () | _ -> Alcotest.fail "add reader");
  (* interleave writes to both keys on one thread/pipeline *)
  let rec chain i =
    if i < 10 then begin
      let key = if i mod 2 = 0 then 1 else 2 in
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx key (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
              commit ()))
        (fun _ -> chain (i + 1))
    end
  in
  chain 0;
  Helpers.drain c;
  check Alcotest.(option int) "key1 at node1" (Some 5) (value_at c 1 1);
  check Alcotest.(option int) "key2 at node2" (Some 5) (value_at c 2 2);
  Helpers.expect_invariants c

let version_monotonic_apply () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  for i = 1 to 5 do
    Helpers.expect_committed "w" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int i))
  done;
  List.iter
    (fun n ->
      match obj_at c n 1 with
      | Some o -> check Alcotest.int "version" 6 o.Zeus_store.Obj.t_version
      | None -> Alcotest.fail "replica missing")
    [ 0; 1; 2 ]

let coordinator_dies_followers_replay () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 1);
  let n0 = Cluster.node c 0 in
  (* commit locally, then kill the coordinator before R-VALs settle *)
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.read_write ctx 1 (fun _ -> Value.of_int 99) (fun _ -> commit ()))
    (fun _ -> ());
  ignore (Engine.schedule (Cluster.engine c) ~after:6.0 (fun () -> Cluster.kill c 0));
  Helpers.drain c ~max_us:300_000.0;
  (* both survivors must have converged on the same value, fully validated *)
  let v1 = value_at c 1 1 and v2 = value_at c 2 1 in
  check Alcotest.(option int) "followers agree" v1 v2;
  (match (obj_at c 1 1, obj_at c 2 1) with
  | Some a, Some b ->
    check Alcotest.bool "validated after replay" true
      (a.Zeus_store.Obj.t_state = Types.T_valid && b.Zeus_store.Obj.t_state = Types.T_valid)
  | _ -> Alcotest.fail "replicas missing");
  (* survivors can take over and keep writing *)
  Helpers.expect_committed "post-crash write"
    (Helpers.write_txn c 1 ~keys:[ 1 ] ~value:(Value.of_int 100));
  check Alcotest.(option int) "new value" (Some 100) (value_at c 2 1);
  Helpers.expect_invariants c

let pipeline_crash_replay_burst () =
  (* a burst of pipelined commits in flight when the coordinator dies:
     replay must deliver a prefix, identically everywhere *)
  let c = Helpers.default_cluster ~seed:7L () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.populate c ~key:2 ~owner:0 (Value.of_int 0);
  let n0 = Cluster.node c 0 in
  let rec chain i =
    if i < 30 then begin
      let key = 1 + (i mod 2) in
      Node.run_write n0 ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
          Node.read_write ctx key (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
              commit ()))
        (fun _ -> chain (i + 1))
    end
  in
  chain 0;
  ignore (Engine.schedule (Cluster.engine c) ~after:10.0 (fun () -> Cluster.kill c 0));
  Helpers.drain c ~max_us:300_000.0;
  check Alcotest.(option int) "key1 agree" (value_at c 1 1) (value_at c 2 1);
  check Alcotest.(option int) "key2 agree" (value_at c 1 2) (value_at c 2 2);
  Helpers.expect_invariants c

let follower_dies_commit_completes () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 1);
  Cluster.kill c 2;
  (* commit while one follower is dead: must complete with the live one *)
  Helpers.expect_committed "write with dead follower"
    (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 50));
  check Alcotest.(option int) "live follower has it" (Some 50) (value_at c 1 1);
  Helpers.expect_invariants c

let follower_dies_mid_commit () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 1);
  let n0 = Cluster.node c 0 in
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.read_write ctx 1 (fun _ -> Value.of_int 77) (fun _ -> commit ()))
    (fun _ -> ());
  ignore (Engine.schedule (Cluster.engine c) ~after:5.0 (fun () -> Cluster.kill c 2));
  Helpers.drain c ~max_us:300_000.0;
  check Alcotest.int "no stuck slots" 0 (Com.Agent.inflight (Node.commit_agent n0));
  check Alcotest.(option int) "survivor replicated" (Some 77) (value_at c 1 1);
  Helpers.expect_invariants c

let created_objects_replicate () =
  let c = Helpers.default_cluster () in
  let n0 = Cluster.node c 0 in
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.insert ctx 42 (Value.of_int 4242);
      commit ())
    (fun o -> Helpers.expect_committed "insert" o);
  Helpers.drain c;
  (* readers got installed by the R-INV *)
  check Alcotest.(option int) "reader 1" (Some 4242) (value_at c 1 42);
  check Alcotest.(option int) "reader 2" (Some 4242) (value_at c 2 42);
  Helpers.expect_invariants c

let freed_objects_disappear_everywhere () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  let n0 = Cluster.node c 0 in
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit -> Node.delete ctx 1 (fun () -> commit ()))
    (fun o -> Helpers.expect_committed "delete" o);
  Helpers.drain c;
  List.iter
    (fun n ->
      check Alcotest.bool (Printf.sprintf "gone at %d" n) false
        (Table.mem (Node.table (Cluster.node c n)) 1))
    [ 0; 1; 2 ]

let stored_invs_are_discarded () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  for i = 1 to 10 do
    Helpers.expect_committed "w" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int i))
  done;
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "no retained R-INVs at %d" n)
        0
        (Com.Agent.stored_invs (Node.commit_agent (Cluster.node c n))))
    [ 1; 2 ]

(* ---- deterministic clear-mark unit tests: drive Com.Core directly ------- *)

module CC = Com.Core
module M = Com.Messages

let pipe0 = { M.node = 0; thread = 0 }
let tx slot = { M.pipe = pipe0; slot }

let upd slot =
  { Zeus_store.Txn.key = 1; version = slot + 1; data = Value.empty; freed = false }

let env ?(epoch = 0) () = { CC.epoch; live = [| true; true; true |]; trace_on = false }

let deliver ?epoch st payload =
  CC.handle st (CC.Deliver { src = 0; payload; env = env ?epoch () })

let inv ?(prev_val = false) ?(epoch = 0) slot =
  M.R_inv
    {
      tx = tx slot;
      epoch;
      followers = [ 1 ];
      writes = [ upd slot ];
      prev_val;
      replay = false;
    }

let rval ?(upto = -1) ?(epoch = 0) slot = M.R_val { tx = tx slot; upto; epoch }

let count_acks effs =
  List.length
    (List.filter (function CC.Send { payload = M.R_ack _; _ } -> true | _ -> false) effs)

let has_validate_stored effs =
  List.exists (function CC.Validate_stored _ -> true | _ -> false) effs

let overtaking_val_is_adopted () =
  (* the seeded deadlock, at the unit level: an extra-val R-VAL for slot 0
     reaches a follower with no state for the pipe, then the pipe's first
     R-INV (slot 1, open predecessor) lands.  Sequenced adopts the VAL, so
     the INV finds its predecessor cleared and applies immediately. *)
  let st = CC.create ~self:1 ~nodes:3 () in
  let st, _ = deliver st (rval ~upto:0 0) in
  let st, effs = deliver st (inv 1) in
  check Alcotest.int "ack sent" 1 (count_acks effs);
  check Alcotest.int "nothing buffered" 0 (CC.buffered_invs st)

let legacy_drops_overtaking_val () =
  (* same delivery order under the Legacy compat knob: the unknown-pipe VAL
     is dropped and the first INV wedges — the pinned negative control. *)
  let st = CC.create ~clear_marks:CC.Legacy ~self:1 ~nodes:3 () in
  let st, _ = deliver st (rval ~upto:0 0) in
  let st, effs = deliver st (inv 1) in
  check Alcotest.int "no ack" 0 (count_acks effs);
  check Alcotest.int "INV wedged" 1 (CC.buffered_invs st)

let stale_incarnation_val_is_fenced () =
  (* a VAL from a fenced-and-reset incarnation (older epoch, unknown pipe)
     must not resurrect pipe state: adoption is refused, so the INV that
     follows still waits for a legitimate clear mark. *)
  let st = CC.create ~self:1 ~nodes:3 () in
  let st, _ = deliver ~epoch:1 st (rval ~upto:0 ~epoch:0 0) in
  let st, _ = deliver ~epoch:1 st (inv ~epoch:1 1) in
  check Alcotest.int "stale VAL ignored, INV buffered" 1 (CC.buffered_invs st)

let upto_watermark_clears_unseen_slots () =
  (* VAL(3, upto = 2) vouches for slots this follower never saw: a later
     INV(4) with an open predecessor applies without buffering. *)
  let st = CC.create ~self:1 ~nodes:3 () in
  let st, effs0 = deliver st (inv 0) in
  check Alcotest.int "slot 0 acked" 1 (count_acks effs0);
  let st, _ = deliver st (rval ~upto:2 3) in
  let st, effs = deliver st (inv 4) in
  check Alcotest.int "slot 4 acked" 1 (count_acks effs);
  check Alcotest.int "nothing buffered" 0 (CC.buffered_invs st)

let unvouched_gap_still_buffers () =
  (* soundness half: the VAL's own slot is a mark, not a watermark jump —
     slots in (upto, slot) stay uncleared, so an INV behind the gap buffers
     until a voucher for its predecessor arrives. *)
  let st = CC.create ~self:1 ~nodes:3 () in
  let st, _ = deliver st (rval ~upto:0 3) in
  let st, _ = deliver st (inv 2) in
  check Alcotest.int "gap INV buffered" 1 (CC.buffered_invs st);
  (* the voucher arrives: VAL(1) clears the predecessor and drains *)
  let st, effs = deliver st (rval ~upto:1 1) in
  check Alcotest.int "drained on voucher" 1 (count_acks effs);
  check Alcotest.int "buffer empty" 0 (CC.buffered_invs st)

let val_validates_stored_inv () =
  let st = CC.create ~self:1 ~nodes:3 () in
  let st, _ = deliver st (inv 0) in
  check Alcotest.int "stored until validated" 1 (CC.stored_invs st);
  let st, effs = deliver st (rval ~upto:0 0) in
  check Alcotest.bool "Validate_stored emitted" true (has_validate_stored effs);
  check Alcotest.int "stored discarded" 0 (CC.stored_invs st)

let suite =
  [
    tc "replicates to all followers" replicates_to_followers;
    tc "multi-object transaction is atomic" multi_object_atomic;
    tc "pipelining never blocks the thread (§5.2)" pipelining_does_not_block;
    tc "pipeline order preserved under reordering" followers_apply_in_pipeline_order;
    tc "partial-stream followers (prev-VAL, §5.2)" partial_stream_follower;
    tc "version-monotonic application" version_monotonic_apply;
    tc "coordinator crash: followers replay (§5.1)" coordinator_dies_followers_replay;
    tc "coordinator crash mid-pipeline burst" pipeline_crash_replay_burst;
    tc "dead follower does not block commits" follower_dies_commit_completes;
    tc "follower dies mid-commit" follower_dies_mid_commit;
    tc "created objects replicate to readers" created_objects_replicate;
    tc "freed objects disappear everywhere" freed_objects_disappear_everywhere;
    tc "R-INVs discarded after validation" stored_invs_are_discarded;
    tc "clear marks: overtaking VAL adopted (unit)" overtaking_val_is_adopted;
    tc "clear marks: legacy drops overtaking VAL (unit)" legacy_drops_overtaking_val;
    tc "clear marks: stale-incarnation VAL fenced (unit)" stale_incarnation_val_is_fenced;
    tc "clear marks: upto watermark clears unseen slots (unit)"
      upto_watermark_clears_unseen_slots;
    tc "clear marks: unvouched gap still buffers (unit)" unvouched_gap_still_buffers;
    tc "clear marks: VAL validates stored R-INV (unit)" val_validates_stored_inv;
  ]
