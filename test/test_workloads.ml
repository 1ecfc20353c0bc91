(* Tests for the benchmark workload generators and locality models. *)

module Rng = Zeus_sim.Rng
module W = Zeus_workload

let tc = Helpers.tc
let check = Alcotest.check

let keys_of (s : W.Spec.t) = s.W.Spec.reads @ s.W.Spec.writes

(* ---------- smallbank ---------- *)

let smallbank_keys_in_range () =
  let rng = Rng.create 1L in
  let w = W.Smallbank.create ~accounts_per_node:100 ~nodes:3 rng in
  for _ = 1 to 2_000 do
    let s = W.Smallbank.gen w ~home:1 in
    List.iter
      (fun k ->
        if k < 0 || k >= W.Smallbank.total_keys w then Alcotest.failf "key %d" k)
      (keys_of s)
  done

let smallbank_local_when_no_drift () =
  let rng = Rng.create 2L in
  let w = W.Smallbank.create ~accounts_per_node:100 ~nodes:3 ~remote_frac:0.0 rng in
  for _ = 1 to 1_000 do
    let s = W.Smallbank.gen w ~home:2 in
    List.iter
      (fun k ->
        check Alcotest.int "home" 2 (W.Smallbank.home_of_key w k))
      (keys_of s)
  done

let smallbank_mix_ratios () =
  let rng = Rng.create 3L in
  let w = W.Smallbank.create ~accounts_per_node:100 ~nodes:3 rng in
  let ro = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if (W.Smallbank.gen w ~home:0).W.Spec.read_only then incr ro
  done;
  let frac = float_of_int !ro /. float_of_int n in
  if frac < 0.12 || frac > 0.18 then Alcotest.failf "read fraction %f (want ~0.15)" frac

let smallbank_remote_frac_respected () =
  let rng = Rng.create 4L in
  let w = W.Smallbank.create ~accounts_per_node:100 ~nodes:3 ~remote_frac:0.5 rng in
  let remote = ref 0 and writes = ref 0 in
  for _ = 1 to 10_000 do
    let s = W.Smallbank.gen w ~home:0 in
    if not s.W.Spec.read_only then begin
      incr writes;
      if List.exists (fun k -> W.Smallbank.home_of_key w k <> 0) (keys_of s) then
        incr remote
    end
  done;
  let frac = float_of_int !remote /. float_of_int !writes in
  if frac < 0.4 || frac > 0.6 then Alcotest.failf "remote fraction %f (want ~0.5)" frac

(* ---------- tatp ---------- *)

let tatp_read_ratio () =
  let rng = Rng.create 5L in
  let w = W.Tatp.create ~subscribers_per_node:100 ~nodes:3 rng in
  let ro = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if (W.Tatp.gen w ~home:0).W.Spec.read_only then incr ro
  done;
  let frac = float_of_int !ro /. float_of_int n in
  if frac < 0.77 || frac > 0.83 then Alcotest.failf "read fraction %f (want ~0.8)" frac

let tatp_reads_local_by_default () =
  let rng = Rng.create 6L in
  let w = W.Tatp.create ~subscribers_per_node:100 ~nodes:3 ~remote_frac:0.9 rng in
  for _ = 1 to 2_000 do
    let s = W.Tatp.gen w ~home:1 in
    if s.W.Spec.read_only then
      List.iter
        (fun k -> check Alcotest.int "read stays home" 1 (W.Tatp.home_of_key w k))
        (keys_of s)
  done

let tatp_baseline_reads_drift () =
  let rng = Rng.create 7L in
  let w =
    W.Tatp.create ~subscribers_per_node:100 ~nodes:3 ~remote_frac:0.9 ~local_reads:false
      rng
  in
  let remote = ref 0 and reads = ref 0 in
  for _ = 1 to 5_000 do
    let s = W.Tatp.gen w ~home:1 in
    if s.W.Spec.read_only then begin
      incr reads;
      if List.exists (fun k -> W.Tatp.home_of_key w k <> 1) (keys_of s) then incr remote
    end
  done;
  if float_of_int !remote /. float_of_int !reads < 0.5 then
    Alcotest.fail "baseline reads should drift remote"

(* ---------- voter ---------- *)

let voter_contestant_thread_binding () =
  let rng = Rng.create 8L in
  let w = W.Voter.create ~contestants:20 ~voters:3_000 ~nodes:3 rng in
  for _ = 1 to 1_000 do
    let s = W.Voter.gen w ~home:1 ~thread:2 ~threads:5 in
    match s.W.Spec.writes with
    | [ contestant; voter ] ->
      check Alcotest.int "contestant home" 1 (W.Voter.home_of_key w contestant);
      check Alcotest.int "voter home" 1 (W.Voter.home_of_key w voter);
      check Alcotest.int "thread binding" 2 (contestant mod 5)
    | _ -> Alcotest.fail "vote must write two objects"
  done

(* ---------- handover + mobility ---------- *)

let handover_two_txn_structure () =
  let rng = Rng.create 10L in
  let w =
    W.Handover.create ~users_per_node:100 ~stations_per_node:10 ~nodes:3
      ~handover_frac:1.0 ~remote_handover_frac:0.0 rng
  in
  let s1, s2 = W.Handover.gen w ~home:0 ~thread:0 ~threads:10 in
  check Alcotest.bool "local handover has an end txn" true (s2 <> None);
  check Alcotest.int "start txn: user + old bs" 2 (List.length s1.W.Spec.writes)

let handover_remote_crosses_nodes () =
  let rng = Rng.create 11L in
  let w =
    W.Handover.create ~users_per_node:100 ~stations_per_node:10 ~nodes:3
      ~handover_frac:1.0 ~remote_handover_frac:1.0 rng
  in
  let s1, s2 = W.Handover.gen w ~home:0 ~thread:0 ~threads:10 in
  check Alcotest.bool "remote handover is single incoming txn" true (s2 = None);
  (match s1.W.Spec.writes with
  | [ user; station ] ->
    check Alcotest.int "user from neighbour" 1 (W.Handover.home_of_key w user);
    check Alcotest.int "station local" 0 (W.Handover.home_of_key w station)
  | _ -> Alcotest.fail "unexpected write set")

let handover_payload_size () =
  let rng = Rng.create 12L in
  let w =
    W.Handover.create ~users_per_node:100 ~stations_per_node:10 ~nodes:3
      ~handover_frac:0.0 ~remote_handover_frac:0.0 rng
  in
  let s, _ = W.Handover.gen w ~home:0 ~thread:0 ~threads:10 in
  check Alcotest.int "~400B contexts" 400 s.W.Spec.payload

let mobility_fraction_sane () =
  let rng = Rng.create 13L in
  let f6 = W.Mobility.remote_handover_fraction ~trips:4_000 ~nodes:6 rng in
  let f1 = W.Mobility.remote_handover_fraction ~trips:4_000 ~nodes:1 rng in
  check (Alcotest.float 1e-9) "1 node: no remote" 0.0 f1;
  if f6 < 0.02 || f6 > 0.12 then
    Alcotest.failf "6-node remote handover fraction %f (paper: 6.2%%)" f6

let mobility_more_nodes_more_remote () =
  let rng = Rng.create 14L in
  let f2 = W.Mobility.remote_handover_fraction ~trips:6_000 ~nodes:2 rng in
  let f6 = W.Mobility.remote_handover_fraction ~trips:6_000 ~nodes:6 rng in
  if f6 <= f2 then Alcotest.failf "expected monotone-ish: f2=%f f6=%f" f2 f6

let mobility_trip_structure () =
  let rng = Rng.create 15L in
  let trip = W.Mobility.sample_trip ~nodes:6 rng in
  check Alcotest.bool "nonempty" true (List.length trip >= 1);
  List.iter
    (fun (station, node) ->
      if station < 0 || station >= W.Mobility.stations then
        Alcotest.fail "station out of range";
      if node < 0 || node >= 6 then Alcotest.fail "node out of range")
    trip

(* ---------- venmo + tpcc ---------- *)

let venmo_remote_fraction_calibrated () =
  let rng = Rng.create 16L in
  let v3 = W.Venmo.create ~nodes:3 rng in
  let f3 = W.Venmo.remote_fraction ~samples:100_000 v3 in
  if f3 < 0.004 || f3 > 0.02 then Alcotest.failf "3-node venmo %f (paper 0.7%%)" f3

let venmo_pairs_valid () =
  let rng = Rng.create 17L in
  let v = W.Venmo.create ~nodes:3 rng in
  let users = W.Venmo.users in
  for _ = 1 to 2_000 do
    let a, b = W.Venmo.gen_pair v in
    if a = b then Alcotest.fail "self-payment";
    if a < 0 || a >= users || b < 0 || b >= users then Alcotest.fail "user range"
  done

let tpcc_analytics () =
  let txn = W.Tpcc.remote_txn_fraction in
  (* spec-standard: 45% * (1-.99^10) + 43% * 15% ~ 10.8% *)
  if txn < 0.09 || txn > 0.12 then Alcotest.failf "tpcc txn fraction %f" txn;
  let acc = W.Tpcc.remote_access_fraction in
  if acc < 0.003 || acc > 0.03 then Alcotest.failf "tpcc access fraction %f" acc

(* ---------- populate and issue ---------- *)

module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Table = Zeus_store.Table
module Obj = Zeus_store.Obj

(* The owner's copy of [key] on [node], if it has one. *)
let owned c node key =
  match Table.find (Node.table (Cluster.node c node)) key with
  | Some o when Obj.is_owner o -> Some o
  | Some _ | None -> None

(* Every workload's [populate] installs each key on [home_of_key]'s node,
   as owner, holding the workload's initial value — and nothing past its
   key space.  A row builds the workload on a 3-node cluster, populates
   it, and returns (total keys, home of a key, initial value of a key). *)
let populate_rows : (string * (Cluster.t -> int * (int -> int) * (int -> bytes))) list =
  [
    ( "smallbank",
      fun c ->
        let w = W.Smallbank.create ~accounts_per_node:50 ~nodes:3 (Rng.create 1L) in
        W.Smallbank.populate w c;
        ( W.Smallbank.total_keys w,
          W.Smallbank.home_of_key w,
          fun _ -> W.Smallbank.initial_value ) );
    ( "tatp",
      fun c ->
        let w = W.Tatp.create ~subscribers_per_node:50 ~nodes:3 (Rng.create 2L) in
        W.Tatp.populate w c;
        (W.Tatp.total_keys w, W.Tatp.home_of_key w, fun _ -> W.Tatp.initial_value) );
    ( "handover",
      fun c ->
        let w =
          W.Handover.create ~users_per_node:50 ~stations_per_node:20 ~nodes:3
            ~handover_frac:0.025 ~remote_handover_frac:0.3 (Rng.create 3L)
        in
        W.Handover.populate w c;
        ( W.Handover.total_keys w,
          W.Handover.home_of_key w,
          fun k ->
            if W.Handover.is_user_key w k then W.Handover.user_context
            else W.Handover.station_context ) );
    ( "voter",
      fun c ->
        let w = W.Voter.create ~contestants:12 ~voters:150 ~nodes:3 (Rng.create 4L) in
        W.Voter.populate w c;
        (W.Voter.total_keys w, W.Voter.home_of_key w, fun _ -> W.Voter.initial_value) );
  ]

let populate_places_every_key () =
  List.iter
    (fun (name, setup) ->
      let c = Helpers.default_cluster ~record_history:false () in
      let n, home_of_key, value_of = setup c in
      for key = 0 to n - 1 do
        match owned c (home_of_key key) key with
        | Some o when Bytes.equal o.Obj.data (value_of key) -> ()
        | Some _ -> Alcotest.failf "%s: key %d holds the wrong initial value" name key
        | None ->
          Alcotest.failf "%s: key %d not owned by node %d" name key (home_of_key key)
      done;
      for node = 0 to Cluster.nodes c - 1 do
        if Table.mem (Node.table (Cluster.node c node)) n then
          Alcotest.failf "%s: key %d past the key space installed" name n
      done)
    populate_rows

(* With every operation a local handover, [issue]'s second call must run
   the first call's end transaction: the same user context written again,
   and no other user touched. *)
let handover_issue_runs_second_txn_next () =
  let users = 1_000 in
  let c = Helpers.default_cluster ~record_history:false () in
  let w =
    W.Handover.create ~users_per_node:users ~stations_per_node:20 ~nodes:3
      ~handover_frac:1.0 ~remote_handover_frac:0.0 (Rng.create 5L)
  in
  W.Handover.populate w c;
  let node = Cluster.node c 0 in
  let written () =
    List.filter_map
      (fun u ->
        let key = W.Handover.user_key w u in
        match owned c 0 key with
        | Some o when o.Obj.t_version > 1 -> Some (key, o.Obj.t_version)
        | Some _ | None -> None)
      (List.init users Fun.id)
  in
  let issue () =
    let outcome = ref None in
    W.Handover.issue w node ~thread:0 (fun o -> outcome := Some o);
    Helpers.drain c;
    check Alcotest.bool "committed" true (!outcome = Some Zeus_store.Txn.Committed)
  in
  issue ();
  let user =
    match written () with
    | [ (key, 2) ] -> key
    | l -> Alcotest.failf "first call wrote %d user contexts, want 1" (List.length l)
  in
  issue ();
  match written () with
  | [ (key, 3) ] when key = user -> ()
  | _ -> Alcotest.fail "second call did not run the handover's end transaction"

(* ---------- driver ---------- *)

let driver_counts_in_window () =
  let c = Helpers.default_cluster () in
  Zeus_core.Cluster.populate c ~key:1 ~owner:0 (Zeus_store.Value.of_int 0);
  let r =
    W.Driver.run c ~nodes:[ 0 ] ~threads:1 ~warmup_us:100.0 ~duration_us:1_000.0
      ~issue:(fun node ~thread k ->
        W.Spec.run_on_zeus node ~thread (W.Spec.write_txn [ 1 ]) k)
      ()
  in
  Alcotest.(check bool) "some commits" true (r.W.Driver.committed > 0);
  let expected = float_of_int r.W.Driver.committed /. 1_000.0 in
  Alcotest.(check (float 1e-6)) "mtps math" expected r.W.Driver.mtps

(* An issue function that aborts the first attempt of every transaction
   and would commit a second one: the driver never re-issues, so nothing
   ever commits.  A transaction is its thread's [issued.(thread)]-th call;
   [attempts] counts the calls that named each one.  Failures are
   delivered asynchronously so simulated time advances between
   transactions. *)
let flaky_issue c ~issued ~attempts _node ~thread k =
  let eng = Zeus_core.Cluster.engine c in
  let key = (thread, issued.(thread)) in
  issued.(thread) <- issued.(thread) + 1;
  let n = (try Hashtbl.find attempts key with Not_found -> 0) + 1 in
  Hashtbl.replace attempts key n;
  ignore
    (Zeus_sim.Engine.schedule eng ~after:10.0 (fun () ->
         k (if n >= 2 then Zeus_store.Txn.Committed
            else Zeus_store.Txn.Aborted (Zeus_store.Txn.Lock_conflict 0))))

let driver_aborts_surface () =
  let c = Helpers.default_cluster () in
  let issued = Array.make 2 0 and attempts = Hashtbl.create 64 in
  let r =
    W.Driver.run c ~nodes:[ 0 ] ~threads:2 ~warmup_us:0.0 ~duration_us:2_000.0
      ~issue:(flaky_issue c ~issued ~attempts) ()
  in
  Alcotest.(check int) "first attempts always abort" 0 r.W.Driver.committed;
  Alcotest.(check bool) "aborts surface" true (r.W.Driver.aborted > 0)

let suite =
  [
    tc "smallbank: keys in range" smallbank_keys_in_range;
    tc "smallbank: local without drift" smallbank_local_when_no_drift;
    tc "smallbank: 15% read transactions" smallbank_mix_ratios;
    tc "smallbank: remote_frac respected" smallbank_remote_frac_respected;
    tc "tatp: 80% read transactions" tatp_read_ratio;
    tc "tatp: reads local by default" tatp_reads_local_by_default;
    tc "tatp: baseline reads drift" tatp_baseline_reads_drift;
    tc "voter: LB binds contestants to node+thread" voter_contestant_thread_binding;
    tc "handover: two-transaction structure" handover_two_txn_structure;
    tc "handover: remote crosses nodes" handover_remote_crosses_nodes;
    tc "handover: 400B contexts" handover_payload_size;
    tc "handover: issue runs the second transaction next"
      handover_issue_runs_second_txn_next;
    tc "populate: every key at its home with its initial value" populate_places_every_key;
    tc "mobility: remote fraction near paper's" mobility_fraction_sane;
    tc "mobility: more nodes, more remote" mobility_more_nodes_more_remote;
    tc "mobility: trips well-formed" mobility_trip_structure;
    tc "venmo: calibrated remote fraction" venmo_remote_fraction_calibrated;
    tc "venmo: valid pairs" venmo_pairs_valid;
    tc "tpcc: analytical fractions" tpcc_analytics;
    tc "driver: measurement window math" driver_counts_in_window;
    tc "driver: aborts surface" driver_aborts_surface;
  ]
