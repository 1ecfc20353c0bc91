(* Tests for the node transaction API, the history checker, and cluster
   invariants. *)

module Engine = Zeus_sim.Engine
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module History = Zeus_core.History
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn

let tc = Helpers.tc
let check = Alcotest.check

(* ---------- transaction API ---------- *)

let read_write_roundtrip () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 10);
  Helpers.expect_committed "write" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 20));
  check Alcotest.(option int) "read back" (Some 20) (Helpers.read_value c 0 1)

let read_only_on_any_replica () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 33);
  List.iter
    (fun n ->
      check Alcotest.(option int) (Printf.sprintf "replica %d" n) (Some 33)
        (Helpers.read_value c n 1))
    [ 0; 1; 2 ]

let ro_txn_costs_no_messages () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 33);
  Helpers.drain c;
  let before = Zeus_net.Fabric.messages_sent (Cluster.fabric c) in
  ignore (Helpers.read_value c 1 1);
  check Alcotest.int "no network traffic" before
    (Zeus_net.Fabric.messages_sent (Cluster.fabric c))

let local_conflict_retries () =
  (* two threads updating the same key with read-modify-write increments:
     no lost updates despite conflicts *)
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let n0 = Cluster.node c 0 in
  let pending = ref 20 in
  (* one in-flight transaction per thread, as on real worker threads *)
  for thread = 0 to 1 do
    let rec chain i =
      if i < 10 then
        Node.run_write n0 ~thread
          ~exec_us:0.0 ~body:(fun ctx commit ->
            Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v + 1)) (fun _ ->
                commit ()))
          (fun o ->
            Helpers.expect_committed "increment" o;
            decr pending;
            chain (i + 1))
    in
    chain 0
  done;
  Helpers.drain c;
  check Alcotest.int "all committed" 0 !pending;
  check Alcotest.(option int) "no lost updates" (Some 20) (Helpers.read_value c 0 1);
  Helpers.expect_invariants c

(* Every lookup miss returns one shared dummy per structure, so a write
   through an unchecked lookup would corrupt every later miss: the
   invariant check fails on it. *)
let dummy_writes_fail_invariants () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 5);
  Helpers.expect_invariants c;
  let corrupted what ~write ~restore =
    write ();
    (match Fun.protect ~finally:restore (fun () -> Cluster.check_invariants c) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "a write to %s passed the invariant check" what);
    Helpers.expect_invariants c
  in
  let obj = Zeus_store.Obj.dummy in
  corrupted "Obj.dummy"
    ~write:(fun () -> obj.Zeus_store.Obj.t_version <- 7)
    ~restore:(fun () -> obj.Zeus_store.Obj.t_version <- 0);
  let entry = Zeus_ownership.Directory.dummy in
  corrupted "Directory.dummy"
    ~write:(fun () -> entry.Zeus_ownership.Directory.o_state <- Zeus_store.Types.O_drive)
    ~restore:(fun () -> entry.Zeus_ownership.Directory.o_state <- Zeus_store.Types.O_valid)

let abort_after_max_retries () =
  (* requesting ownership of a key whose directory entry does not exist
     aborts after bounded retries instead of hanging *)
  let c = Helpers.default_cluster () in
  let outcome = ref None in
  Node.run_write (Cluster.node c 0) ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit -> Node.write ctx 777 (Value.of_int 1) (fun () -> commit ()))
    (fun o -> outcome := Some o);
  Helpers.drain c ~max_us:1_000_000.0;
  match !outcome with
  | Some (Txn.Aborted _) -> ()
  | Some Txn.Committed -> Alcotest.fail "committed on unknown key"
  | None -> Alcotest.fail "hung"

let insert_then_use () =
  let c = Helpers.default_cluster () in
  let n0 = Cluster.node c 0 in
  Node.run_write n0 ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.insert ctx 5 (Value.of_int 50);
      commit ())
    (fun o -> Helpers.expect_committed "insert" o);
  Helpers.drain c;
  (* another node can now take ownership of the created object *)
  Helpers.expect_committed "remote write of created object"
    (Helpers.write_txn c 2 ~keys:[ 5 ] ~value:(Value.of_int 51));
  check Alcotest.(option int) "updated" (Some 51) (Helpers.read_value c 0 5);
  Helpers.expect_invariants c

let cross_node_transfer () =
  (* the quickstart scenario as a test: transfer between accounts whose
     ownership migrates, conservation holds *)
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 100);
  Cluster.populate c ~key:2 ~owner:1 (Value.of_int 100);
  let transfer node amount =
    let done_ = ref false in
    Node.run_write (Cluster.node c node) ~thread:0
      ~exec_us:0.0 ~body:(fun ctx commit ->
        Node.read_write ctx 1 (fun v -> Value.of_int (Value.to_int v - amount)) (fun _ ->
            Node.read_write ctx 2
              (fun v -> Value.of_int (Value.to_int v + amount))
              (fun _ -> commit ())))
      (fun o ->
        Helpers.expect_committed "transfer" o;
        done_ := true);
    Helpers.drain c;
    check Alcotest.bool "completed" true !done_
  in
  transfer 0 10;
  transfer 2 20;
  transfer 1 5;
  let a = Option.get (Helpers.read_value c 0 1) in
  let b = Option.get (Helpers.read_value c 0 2) in
  check Alcotest.int "conservation" 200 (a + b);
  Helpers.expect_invariants c

let txn_counters () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Helpers.expect_committed "w" (Helpers.write_txn c 0 ~keys:[ 1 ] ~value:(Value.of_int 1));
  ignore (Helpers.read_value c 1 1);
  check Alcotest.int "committed" 1 (Node.committed (Cluster.node c 0));
  check Alcotest.int "ro committed" 1 (Node.ro_committed (Cluster.node c 1))

let dead_node_rejects_txns () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.kill c 0;
  Helpers.drain c;
  let outcome = ref None in
  Node.run_write (Cluster.node c 0) ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit -> Node.write ctx 1 (Value.of_int 1) (fun () -> commit ()))
    (fun o -> outcome := Some o);
  Helpers.drain c;
  match !outcome with
  | Some (Txn.Aborted Txn.Node_dead) -> ()
  | _ -> Alcotest.fail "dead node accepted a transaction"

(* ---------- slot reuse ---------- *)

(* [Node] runs each thread's transactions in one reused slot (the [ctx] a
   body receives) and hands it back before the caller's continuation
   runs; a transaction issued while the thread's slot is busy gets a
   fresh one.  These cases drive each way a slot comes back: commit,
   abort after the retry budget, a dead node, and a commit waiting for a
   pipeline slot. *)

(* Run a write of [value] to [keys] on [thread]; [seen] receives the
   body's ctx on every attempt. *)
let write_on node ~thread ~keys ~value ~seen k =
  Node.run_write node ~thread
    ~exec_us:0.0 ~body:(fun ctx commit ->
      seen ctx;
      let rec go = function
        | [] -> commit ()
        | key :: rest -> Node.write ctx key value (fun () -> go rest)
      in
      go keys)
    k

let same_thread_in_flight () =
  let c = Helpers.default_cluster () in
  List.iter (fun key -> Cluster.populate c ~key ~owner:0 (Value.of_int 0)) [ 1; 2; 3 ];
  let n0 = Cluster.node c 0 in
  let ctxs = Array.make 3 None and outcomes = Array.make 3 None in
  let issue i key =
    write_on n0 ~thread:0 ~keys:[ key ] ~value:(Value.of_int (10 + i))
      ~seen:(fun ctx -> ctxs.(i) <- Some ctx)
      (fun o -> outcomes.(i) <- Some o)
  in
  (* Two transactions in flight on thread 0 at once: the second cannot
     take the thread's busy slot. *)
  issue 0 1;
  issue 1 2;
  Helpers.drain c;
  Array.iteri
    (fun i o -> if i < 2 then check Alcotest.bool "committed" true (o = Some Txn.Committed))
    outcomes;
  check Alcotest.bool "distinct slots" true (Option.get ctxs.(0) != Option.get ctxs.(1));
  check Alcotest.int "committed" 2 (Node.committed n0);
  check Alcotest.int "retries" 0 (Node.retries n0);
  (* The thread goes on in the slot handed back last. *)
  issue 2 3;
  Helpers.drain c;
  check Alcotest.bool "third committed" true (outcomes.(2) = Some Txn.Committed);
  check Alcotest.bool "slot reused" true (Option.get ctxs.(2) == Option.get ctxs.(1));
  check Alcotest.int "committed" 3 (Node.committed n0);
  check Alcotest.int "retries" 0 (Node.retries n0);
  List.iteri
    (fun i key -> check Alcotest.(option int) "value" (Some (10 + i)) (Helpers.read_value c 0 key))
    [ 1; 2; 3 ];
  Helpers.expect_invariants c

let refused_acquire_returns_slot () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let n0 = Cluster.node c 0 in
  let first = ref None and attempts = ref 0 and outcome = ref None in
  (* No directory entry for key 777: every Acquire is refused. *)
  write_on n0 ~thread:0 ~keys:[ 777 ] ~value:(Value.of_int 1)
    ~seen:(fun ctx ->
      incr attempts;
      first := Some ctx)
    (fun o -> outcome := Some o);
  Helpers.drain c ~max_us:1_000_000.0;
  (match !outcome with
  | Some (Txn.Aborted (Txn.Ownership_refused 777)) -> ()
  | Some o ->
    Alcotest.failf "expected Ownership_refused 777, got %s"
      (match o with
      | Txn.Committed -> "Committed"
      | Txn.Aborted r -> Format.asprintf "%a" Txn.pp_abort r)
  | None -> Alcotest.fail "hung");
  check Alcotest.int "one attempt per retry" (Config.max_retries + 1) !attempts;
  check Alcotest.int "retries" (Config.max_retries + 1) (Node.retries n0);
  check Alcotest.int "aborted" 1 (Node.aborted n0);
  let next = ref None and outcome = ref None in
  write_on n0 ~thread:0 ~keys:[ 1 ] ~value:(Value.of_int 2)
    ~seen:(fun ctx -> next := Some ctx)
    (fun o -> outcome := Some o);
  Helpers.drain c;
  check Alcotest.bool "next committed" true (!outcome = Some Txn.Committed);
  check Alcotest.bool "slot reused" true (Option.get !next == Option.get !first);
  check Alcotest.(option int) "written" (Some 2) (Helpers.read_value c 0 1)

let dead_node_returns_slot () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  let n2 = Cluster.node c 2 in
  let write value =
    let outcome = ref None in
    write_on n2 ~thread:0 ~keys:[ 1 ] ~value:(Value.of_int value) ~seen:ignore (fun o ->
        outcome := Some o);
    Helpers.drain c;
    !outcome
  in
  Cluster.kill c 2;
  Helpers.drain c;
  check Alcotest.bool "dead node aborts" true (write 1 = Some (Txn.Aborted Txn.Node_dead));
  check Alcotest.bool "again" true (write 2 = Some (Txn.Aborted Txn.Node_dead));
  Cluster.rejoin c 2;
  Helpers.drain c;
  check Alcotest.bool "committed after rejoin" true (write 3 = Some Txn.Committed);
  check Alcotest.(option int) "written" (Some 3) (Helpers.read_value c 0 1);
  Helpers.expect_invariants c

(* With one reliable commit in flight per thread, each commit after the
   first waits for its predecessor's to turn durable: every [on_durable]
   must fire once, in order, for its own transaction's updates (the
   [replicate] span's writes count and parent).  Each transaction starts
   from its predecessor's continuation, so the whole chain runs in the
   thread's one slot. *)
let pipelined_durables_in_order () =
  let config =
    { Config.default with Config.nodes = 3; record_history = true; pipeline_depth = 1 }
  in
  let c = Cluster.create ~config ~tracing:true () in
  List.iter (fun key -> Cluster.populate c ~key ~owner:0 (Value.of_int 0)) [ 1; 2; 3; 4 ];
  let n0 = Cluster.node c 0 in
  let txns = 4 in
  let committed = ref 0 and seen = ref [] in
  let rec chain i =
    if i <= txns then
      write_on n0 ~thread:0 ~keys:(List.init i (fun j -> j + 1)) ~value:(Value.of_int i)
        ~seen:(fun ctx -> seen := ctx :: !seen)
        (fun o ->
          Helpers.expect_committed "pipelined write" o;
          incr committed;
          chain (i + 1))
  in
  chain 1;
  Helpers.drain c;
  check Alcotest.int "all committed" txns !committed;
  check Alcotest.int "one attempt each" txns (List.length !seen);
  check Alcotest.bool "one slot" true (List.for_all (fun ctx -> ctx == List.hd !seen) !seen);
  let module Trace = Zeus_telemetry.Trace in
  let spans = Trace.spans (Zeus_telemetry.Hub.trace (Cluster.telemetry c)) in
  let roots =
    List.filter (fun (s : Trace.span) -> s.Trace.name = "txn" && s.Trace.pid = 0) spans
  in
  let replicates = List.filter (fun (s : Trace.span) -> s.Trace.name = "replicate") spans in
  check Alcotest.int "one root per transaction" txns (List.length roots);
  check Alcotest.int "one replicate span per transaction" txns (List.length replicates);
  List.iteri
    (fun i (root : Trace.span) ->
      let own = List.filter (fun (s : Trace.span) -> s.Trace.parent = root.Trace.id) replicates in
      match own with
      | [ r ] ->
        check Alcotest.(list (pair string string)) "own updates"
          [ ("writes", string_of_int (i + 1)) ]
          r.Trace.args;
        check Alcotest.bool "root closed at durable" true (root.Trace.stop = r.Trace.stop)
      | _ -> Alcotest.failf "transaction %d: %d replicate spans" (i + 1) (List.length own))
    roots;
  let stops = List.map (fun (s : Trace.span) -> s.Trace.stop) replicates in
  check Alcotest.bool "durable in commit order" true (List.sort compare stops = stops);
  List.iter
    (fun key -> check Alcotest.(option int) "final value" (Some txns) (Helpers.read_value c 1 key))
    [ 1; 2; 3; 4 ];
  Helpers.expect_invariants c

(* ---------- history checker ---------- *)

let history_accepts_valid () =
  let h = History.create () in
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 1) ] ~time:10.0;
  History.record_durable h ~writes:[ (1, 1) ] ~time:15.0;
  History.record_commit h ~node:0 ~reads:[ (1, 1) ] ~writes:[ (1, 2) ] ~time:20.0;
  History.record_durable h ~writes:[ (1, 2) ] ~time:25.0;
  History.record_ro h ~node:1 ~reads:[ (1, 1) ] ~time:22.0;
  match History.check h with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid history rejected: %s" e

let history_rejects_gap () =
  let h = History.create () in
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 1) ] ~time:10.0;
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 3) ] ~time:20.0;
  match History.check h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "version gap accepted"

let history_rejects_lost_update () =
  let h = History.create () in
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 1) ] ~time:10.0;
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 2) ] ~time:20.0;
  (* a write that read version 1 but produced version 3 skipped version 2 *)
  History.record_commit h ~node:1 ~reads:[ (1, 1) ] ~writes:[ (1, 3) ] ~time:30.0;
  match History.check h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stale-read write accepted"

let history_rejects_inconsistent_snapshot () =
  let h = History.create () in
  (* key 1: v1 @10 (durable 12), v2 @20 (durable 22)
     key 2: v1 @10 (durable 12), v2 @14 (durable 16)
     reading (1@2, 2@1) is impossible: v2 of key1 exists only from t=20,
     but key2's v1 is gone after t=16 *)
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 1); (2, 1) ] ~time:10.0;
  History.record_durable h ~writes:[ (1, 1); (2, 1) ] ~time:12.0;
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (2, 2) ] ~time:14.0;
  History.record_durable h ~writes:[ (2, 2) ] ~time:16.0;
  History.record_commit h ~node:0 ~reads:[] ~writes:[ (1, 2) ] ~time:20.0;
  History.record_durable h ~writes:[ (1, 2) ] ~time:22.0;
  History.record_ro h ~node:1 ~reads:[ (1, 2); (2, 1) ] ~time:30.0;
  match History.check h with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inconsistent snapshot accepted"

let end_to_end_history_checked () =
  let c = Helpers.default_cluster () in
  Cluster.populate c ~key:1 ~owner:0 (Value.of_int 0);
  Cluster.populate c ~key:2 ~owner:1 (Value.of_int 0);
  for i = 1 to 10 do
    Helpers.expect_committed "w1"
      (Helpers.write_txn c (i mod 3) ~keys:[ 1 ] ~value:(Value.of_int i));
    ignore (Helpers.read_value c ((i + 1) mod 3) 1);
    Helpers.expect_committed "w2"
      (Helpers.write_txn c ((i + 1) mod 3) ~keys:[ 1; 2 ] ~value:(Value.of_int i))
  done;
  (match Cluster.history c with
  | Some h ->
    check Alcotest.bool "history populated" true (History.writes h > 0);
    check Alcotest.bool "ro recorded" true (History.read_only_txns h > 0)
  | None -> Alcotest.fail "history missing");
  Helpers.expect_invariants c

(* ---------- shared initial value ---------- *)

(* [populate] gives a key's replicas one shared copy of the initial value.
   That is safe only because nothing writes into [Obj.data] in place: the
   buffer [Txn.open_write] hands out must be a private copy, and a
   committed write must leave each reader's data as it was until that
   reader applies the R-INV. *)
let shared_initial_value () =
  let c = Helpers.default_cluster () in
  let key = 1 in
  Cluster.populate c ~key ~owner:0 (Value.of_int 10);
  let obj n = Zeus_store.Table.get (Node.table (Cluster.node c n)) key in
  let data n = (obj n).Zeus_store.Obj.data in
  let initial = Bytes.to_string (data 0) in
  check Alcotest.bool "one copy shared by the replicas" true
    (data 1 == data 0 && data 2 == data 0);
  let untouched what n =
    check Alcotest.string (Printf.sprintf "%s: replica %d" what n) initial
      (Bytes.to_string (data n))
  in
  (* Scribbling over an aborted transaction's write buffer. *)
  let txn = Txn.create_write (Node.table (Cluster.node c 0)) ~thread:0 in
  (match Txn.open_write txn key with
  | Ok buf -> Bytes.fill buf 0 (Bytes.length buf) 'x'
  | Error _ -> Alcotest.fail "open_write");
  Txn.abort txn;
  List.iter (untouched "aborted write buffer") [ 0; 1; 2 ];
  (* A committed write that mutates its open_write buffer in place. *)
  let result = ref None in
  Node.run_write (Cluster.node c 0) ~thread:0
    ~exec_us:0.0 ~body:(fun ctx commit ->
      Node.read_write ctx key
        (fun v ->
          Bytes.fill v 0 (Bytes.length v) 'y';
          v)
        (fun _ -> commit ()))
    (fun o -> result := Some o);
  let eng = Cluster.engine c in
  let steps = ref 0 in
  while Engine.pending eng > 0 && !steps < 100_000 do
    Engine.run ~max_events:1 eng;
    incr steps;
    List.iter
      (fun n -> if (obj n).Zeus_store.Obj.t_version = 1 then untouched "before its R-INV" n)
      [ 0; 1; 2 ]
  done;
  check Alcotest.bool "committed" true (!result = Some Txn.Committed);
  List.iter
    (fun n ->
      check Alcotest.string (Printf.sprintf "replica %d after commit" n)
        (String.make (String.length initial) 'y')
        (Bytes.to_string (data n)))
    [ 0; 1; 2 ]

let suite =
  [
    tc "write then read" read_write_roundtrip;
    tc "populate: shared initial value is never written in place" shared_initial_value;
    tc "read-only on every replica (§5.3)" read_only_on_any_replica;
    tc "read-only transactions cost no messages" ro_txn_costs_no_messages;
    tc "local conflicts retry without lost updates" local_conflict_retries;
    tc "bounded retries then abort" abort_after_max_retries;
    tc "invariants: a write to a lookup dummy fails the check" dummy_writes_fail_invariants;
    tc "insert, replicate, migrate" insert_then_use;
    tc "cross-node transfers conserve money" cross_node_transfer;
    tc "counters" txn_counters;
    tc "dead node rejects transactions" dead_node_rejects_txns;
    tc "slots: two in flight on one thread" same_thread_in_flight;
    tc "slots: refused Acquire aborts, slot reused" refused_acquire_returns_slot;
    tc "slots: dead node aborts, commits after rejoin" dead_node_returns_slot;
    tc "slots: pipelined durables fire once, in order" pipelined_durables_in_order;
    tc "history: accepts a valid history" history_accepts_valid;
    tc "history: rejects version gaps" history_rejects_gap;
    tc "history: rejects lost updates" history_rejects_lost_update;
    tc "history: rejects inconsistent RO snapshots" history_rejects_inconsistent_snapshot;
    tc "end-to-end history checking" end_to_end_history_checked;
  ]
