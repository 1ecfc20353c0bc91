(* Allocation budget of the sans-I/O protocol cores.

   Each test scripts a full protocol round through [Core.handle] on
   hand-built states — a remote Acquire (REQ -> INV -> ACK -> VAL across
   three ownership cores) and a reliable-commit INV/ACK/VAL round — and
   bounds the minor words allocated per input.  The bounds sit about 25 %
   above the measured figures: a core that starts formatting debug strings
   or rebuilding constant lists on every input fails here before it shows
   up as a benchmark regression.

   The last two tests pin the simulator's long-lived structures against
   promotion cascades (DESIGN.md §12): a wait queue must not drag served
   jobs into the major heap, and a chaos-monitor sample must not allocate. *)

module OwnC = Zeus_ownership.Core
module OwnM = Zeus_ownership.Messages
module ComC = Zeus_commit.Core
module Config = Zeus_core.Config
module Replicas = Zeus_store.Replicas
module Txn = Zeus_store.Txn
module Value = Zeus_store.Value
module Engine = Zeus_sim.Engine
module Resource = Zeus_sim.Resource
module Cluster = Zeus_core.Cluster
module Monitor = Zeus_chaos.Monitor

let tc = Helpers.tc
let nodes = 3
let warmup = 20
let rounds = 200

(* [handle input], adding the minor words it allocated to [acc] when
   [measure]. *)
let metered ~measure ~acc handle input =
  let before = Gc.minor_words () in
  let effs = handle input in
  if measure then acc := !acc +. (Gc.minor_words () -. before);
  effs

let check_budget name ~inputs ~words ~bound =
  let per_input = words /. float_of_int inputs in
  if per_input > bound then
    Alcotest.failf "%s: %.1f minor words per input (budget %.0f)" name per_input bound

(* ---------- ownership: remote Acquire ----------------------------------- *)

let own_env =
  { OwnC.now = 0.0; epoch = 0; live = Array.make nodes true; self_alive = true;
    trace_on = false }

(* Key [k] starts owned by node 0 with node 1 as reader; node 2 (a
   non-replica, so the driver designates node 0 to ship the data) acquires
   it.  With three directory replicas node 2 drives its own request. *)
let ownership_acquire_budget () =
  let config = Config.default in
  let dir key = Config.dir_nodes_for config ~key in
  let cores = Array.init nodes (fun self -> OwnC.create ~self ~nodes ()) in
  let handle i input = snd (OwnC.handle ~dir cores.(i) input) in
  let total = warmup + rounds in
  let replicas = Replicas.v ~owner:0 ~readers:[ 1 ] in
  for key = 0 to total - 1 do
    Array.iteri (fun i _ -> ignore (handle i (OwnC.Api_seed { key; replicas }))) cores
  done;
  let acc = ref 0.0 and inputs = ref 0 and granted = ref 0 in
  let net = Queue.create () in
  let run ~measure input dst =
    let effs = metered ~measure ~acc (handle dst) input in
    if measure then incr inputs;
    List.iter
      (function
        | OwnC.Send { dst = d; payload; _ } -> Queue.add (dst, d, payload) net
        | OwnC.Send_ack_local_data
            { dst = d; req_id; key; o_ts; new_replicas; arbiters; epoch } ->
          (* the interpreter's job: attach this node's copy of the data *)
          let data = Some { OwnM.value = Value.of_int key; t_version = 1 } in
          let ack =
            OwnM.O_ack
              { req_id; key; o_ts; new_replicas; arbiters; sender = dst; data; epoch }
          in
          Queue.add (dst, d, ack) net
        | OwnC.Apply_requester _ -> incr granted
        | _ -> ())
      effs
  in
  for key = 0 to total - 1 do
    let measure = key >= warmup in
    run ~measure
      (OwnC.Api_request { key; kind = OwnM.Acquire; facts = OwnC.no_facts; env = own_env })
      2;
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      run ~measure (OwnC.Deliver { src; payload; facts = OwnC.no_facts; env = own_env }) dst
    done
  done;
  Alcotest.(check int) "inputs per Acquire" 9 (!inputs / rounds);
  Alcotest.(check int) "every Acquire completed" total !granted;
  check_budget "ownership Acquire" ~inputs:!inputs ~words:!acc ~bound:120.0

(* ---------- commit: one INV/ACK/VAL round ------------------------------- *)

let com_env = { ComC.epoch = 0; live = Array.make nodes true; trace_on = false }

let commit_round_budget () =
  let cores = Array.init nodes (fun self -> ComC.create ~self ~nodes ()) in
  let acc = ref 0.0 and inputs = ref 0 in
  let net = Queue.create () in
  let durable = ref 0 in
  let run ~measure input dst =
    let effs = metered ~measure ~acc (fun i -> snd (ComC.handle cores.(dst) i)) input in
    if measure then incr inputs;
    List.iter
      (function
        | ComC.Send { dst = d; payload; _ } -> Queue.add (dst, d, payload) net
        | ComC.Validate_local _ -> incr durable
        | _ -> ())
      effs
  in
  let total = warmup + rounds in
  for key = 0 to total - 1 do
    let measure = key >= warmup in
    let updates = [ { Txn.key; version = 1; data = Value.of_int key; freed = false } ] in
    run ~measure
      (ComC.Api_commit
         { thread = 0; updates; replica_sets = [ [ 0; 1; 2 ] ]; has_durable = false;
           env = com_env })
      0;
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      run ~measure (ComC.Deliver { src; payload; env = com_env }) dst
    done
  done;
  Alcotest.(check int) "inputs per commit round" 7 (!inputs / rounds);
  Alcotest.(check int) "every commit durable" total !durable;
  Alcotest.(check int) "nothing left stored" 0
    (Array.fold_left (fun a c -> a + ComC.stored_invs c) 0 cores);
  check_budget "commit round" ~inputs:!inputs ~words:!acc ~bound:69.0

(* ---------- resource wait queue: served jobs die young ------------------ *)

let queued = 16
let payload_words = 64

(* A one-server resource with [queued] jobs always waiting: each job, when
   served, schedules the submission of its successor, so ~10k jobs — each
   capturing a fresh 64-word payload — pass through the queue while it
   never drains.  Every minor collection may promote the jobs still queued
   (and the one in service), not the ones already served: a linked queue
   whose popped cells stay chained to the promoted tail copies every job
   pushed since the previous collection. *)
let resource_queue_promotion () =
  let engine = Engine.create () in
  let res = Resource.create engine ~servers:1 in
  let served = ref 0 in
  let rec job i () =
    let payload = Array.make payload_words i in
    Resource.submit res ~service:1.0 (fun () ->
        if payload.(0) = i then incr served;
        ignore (Engine.schedule engine ~after:0.0 (job (i + 1))))
  in
  for i = 0 to queued do
    job (-i - 1) ()
  done;
  Engine.run ~until:10.0 engine;
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  Engine.run ~until:10_000.0 engine;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  Alcotest.(check int) "queue never drained" queued (Resource.queue_length res);
  Alcotest.(check bool) "about 10k jobs served" true (!served >= 9_990);
  let collections = g1.Gc.minor_collections - g0.Gc.minor_collections in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let per_collection = promoted /. float_of_int (max 1 collections) in
  (* A live job (record, closures, payload) is under 2 x the payload;
     allow 4 x that for each job queued or in service. *)
  let bound = float_of_int (4 * (queued + 1) * 2 * payload_words) in
  if per_collection > bound then
    Alcotest.failf "%.0f words promoted per minor collection over %d collections (bound %.0f)"
      per_collection collections bound

(* ---------- chaos monitor: a steady sample allocates nothing ------------- *)

(* An idle, populated 3-node cluster: the only events are the monitor's
   own sampling and goodput-window ticks.  The budget covers rescheduling
   those ticks, not the per-key scan. *)
let monitor_sample_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  Cluster.populate_n c ~n:600 ~owner_of:(fun k -> k mod nodes) (fun k -> Value.of_int k);
  let mon = Monitor.attach c in
  let sample_us = (Monitor.config mon).Monitor.sample_us in
  Cluster.run c ~until_us:(10.0 *. sample_us);
  let s0 = Monitor.samples mon in
  let before = Gc.minor_words () in
  Cluster.run c ~until_us:(110.0 *. sample_us);
  let words = Gc.minor_words () -. before in
  let samples = Monitor.samples mon - s0 in
  Monitor.stop mon;
  Alcotest.(check int) "one sample per period" 100 samples;
  Alcotest.(check (list string)) "no violations" [] (Monitor.violations mon);
  let per_sample = words /. float_of_int samples in
  if per_sample > 48.0 then
    Alcotest.failf "%.1f minor words per monitor sample (budget 48)" per_sample

(* ---------- populate: per-key memory ------------------------------------ *)

module Node = Zeus_core.Node
module Table = Zeus_store.Table
module Tatp = Zeus_workload.Tatp

(* A TATP-shaped store (three rows per subscriber, 48-byte values, three
   nodes, replication degree 3, three directory replicas): per key, one
   object per replica, one entry per directory replica, and whatever the
   key shares.  It measures 84.7 live words per key; with a [Hashtbl]
   directory and a fresh replica set and value copy per replica it was
   115.5.  DESIGN.md §12 itemises the budget. *)
let tatp_subscribers = 10_000

let populate_live_words () =
  let c = Helpers.default_cluster ~record_history:false () in
  let w = Tatp.create ~subscribers_per_node:tatp_subscribers ~nodes (Zeus_sim.Rng.create 1L) in
  let keys = Tatp.total_keys w in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  Cluster.populate_n c ~n:keys ~owner_of:(Tatp.home_of_key w) (fun _ ->
      Bytes.copy Tatp.initial_value);
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let objects = ref 0 in
  for n = 0 to nodes - 1 do
    objects := !objects + Table.size (Node.table (Cluster.node c n))
  done;
  Alcotest.(check int) "one object per replica" (3 * keys) !objects;
  let per_key = float_of_int (live1 - live0) /. float_of_int keys in
  if per_key > 98.0 then
    Alcotest.failf "%.1f live words per key after populate (budget 98)" per_key

(* One replica set per owner, shared by every object it seeds or creates,
   with the values of the plain ring-order formula. *)
let home_replica_sets () =
  for nodes = 1 to 8 do
    for replication_degree = 1 to 5 do
      let config =
        { Config.default with Config.nodes; replication_degree; record_history = false }
      in
      let label = Printf.sprintf "nodes=%d degree=%d" nodes replication_degree in
      let c = Cluster.create ~config () in
      let home owner = Node.home_replicas (Cluster.node c owner) in
      let shared what owner (r : Replicas.t option) =
        match r with
        | Some r when r == home owner -> ()
        | Some _ | None -> Alcotest.failf "%s owner=%d: %s has its own replica set" label owner what
      in
      for owner = 0 to nodes - 1 do
        Alcotest.(check (option int)) (label ^ " owner") (Some owner) (home owner).Replicas.owner;
        Alcotest.(check (list int)) (label ^ " readers")
          (List.init (min (replication_degree - 1) (nodes - 1)) (fun i -> (owner + i + 1) mod nodes))
          (home owner).Replicas.readers;
        for key = 2 * owner to (2 * owner) + 1 do
          Cluster.populate c ~key ~owner (Value.of_int key);
          let table n = Node.table (Cluster.node c n) in
          shared "a seeded object" owner (Table.get (table owner) key).Zeus_store.Obj.o_replicas;
          List.iter
            (fun d ->
              let dir = Zeus_ownership.Agent.directory (Node.ownership_agent (Cluster.node c d)) in
              shared "a directory entry" owner
                (Option.map (fun e -> e.Zeus_ownership.Directory.replicas)
                   (Zeus_ownership.Directory.find dir key)))
            (Config.dir_nodes_for config ~key)
        done
      done;
      (* An object created by a transaction takes its creator's set. *)
      let key = 1000 in
      let result = ref None in
      Node.run_write (Cluster.node c 0) ~thread:0
        ~body:(fun ctx commit ->
          Node.insert ctx key (Value.of_int 0);
          commit ())
        (fun o -> result := Some o);
      Helpers.drain c;
      if !result <> Some Txn.Committed then Alcotest.failf "%s: insert did not commit" label;
      shared "a created object" 0 (Table.get (Node.table (Cluster.node c 0)) key).Zeus_store.Obj.o_replicas
    done
  done

let suite =
  [
    tc "ownership core: remote Acquire allocation budget" ownership_acquire_budget;
    tc "commit core: INV/ACK/VAL allocation budget" commit_round_budget;
    tc "resource: queued jobs alone are promoted" resource_queue_promotion;
    tc "chaos monitor: steady sample allocation budget" monitor_sample_budget;
    tc "populate: live words per TATP-shaped key" populate_live_words;
    tc "populate: one shared replica set per owner" home_replica_sets;
  ]
