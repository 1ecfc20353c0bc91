(* Allocation budget of the sans-I/O protocol cores.

   Each test scripts a full protocol round through [Core.step] on
   hand-built states, walking each input's effects in place as the agents
   do — a remote Acquire (REQ -> INV -> ACK -> VAL across three ownership
   cores), a reliable-commit INV/ACK/VAL round and a pipelined one — and
   bounds the minor words allocated per input, 3 % above the measured
   figures: a core that starts formatting debug strings,
   rebuilding constant lists or hashing its way to a slot on every input
   fails here before it shows up as a benchmark regression.  A second
   ownership row meters the same Acquire through the agents of a
   simulated cluster, a third the agents' own calls in it, a Smallbank
   row and a read-only row meter whole local transactions the same way,
   and the slot window both cores use is unit-tested alongside.

   Four rows meter the plumbing under the cores: the engine's scheduling
   and dispatch, a steady batched transport stream over the fabric, a
   fabric delivery and a failure detector's arrival.

   The last tests pin the simulator's long-lived structures against
   promotion cascades (DESIGN.md §12): a wait queue must not drag served
   jobs into the major heap, and a chaos-monitor sample must not allocate
   beyond its ticks. *)

module OwnC = Zeus_ownership.Core
module OwnM = Zeus_ownership.Messages
module ComC = Zeus_commit.Core
module ComM = Zeus_commit.Messages
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

module Outbox = Zeus_store.Outbox

(* One input as the agents interpret it: [step ()] appends its effects to
   the core's buffer [out], the walk reads them there in place, and the
   minor words of both are added to [acc] when [measure].  Past the
   metered window the effects are listed (the list views copy each cell,
   so the script may keep them while the core reuses the cells) and [out]
   is truncated back to its mark, as the agents truncate it. *)
let metered ~measure ~acc out step =
  let before = Gc.minor_words () in
  let mark = Outbox.length out in
  step ();
  for i = mark to Outbox.length out - 1 do
    ignore (Sys.opaque_identity (Outbox.get out i))
  done;
  if measure then acc := !acc +. (Gc.minor_words () -. before);
  let effs = Outbox.to_list out ~from:mark in
  Outbox.truncate out mark;
  effs

let check_budget name ~inputs ~words ~bound =
  let per_input = words /. float_of_int inputs in
  if per_input > bound then
    Alcotest.failf "%s: %.1f minor words per input (budget %.0f)" name per_input bound

(* ---------- ownership: remote Acquire ----------------------------------- *)

let own_env =
  { OwnC.epoch = 0; live = Array.make nodes true; self_alive = true;
    trace_on = false }

(* Key [k] starts owned by node 0 with node 1 as reader; node 2 (a
   non-replica, so the driver designates node 0 to ship the data) acquires
   it.  With three directory replicas node 2 drives its own request.
   14.4 words per input (3 % of headroom); 28.1 when each effect was a
   fresh record; 44.4 when [handle] copied the effects into a
   list and boxed a result pair per input; 89.2 when the core also kept
   its requests, replays and gate in hashtables, its acks in lists, and
   built a context, a closure and a reversed list per input. *)
let ownership_acquire_budget () =
  let config = Config.default in
  let dir key = Config.dir_nodes_for config ~key in
  let cores = Array.init nodes (fun self -> OwnC.create ~self ~nodes ()) in
  let total = warmup + rounds in
  let replicas = Replicas.v ~owner:0 ~readers:[ 1 ] in
  for key = 0 to total - 1 do
    Array.iter
      (fun core -> ignore (OwnC.handle ~dir core (OwnC.Api_seed { key; replicas })))
      cores
  done;
  let acc = ref 0.0 and inputs = ref 0 and granted = ref 0 in
  let net = Queue.create () in
  let run ~measure input dst =
    let core = cores.(dst) in
    let effs =
      metered ~measure ~acc (OwnC.effects core) (fun () -> OwnC.step ~dir core input)
    in
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
      (OwnC.Api_request { key; kind = OwnM.Acquire; facts = OwnC.no_facts; env = own_env; now = 0.0 })
      2;
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      run ~measure (OwnC.Deliver { src; payload; facts = OwnC.no_facts; env = own_env; now = 0.0 }) dst
    done
  done;
  Alcotest.(check int) "inputs per Acquire" 9 (!inputs / rounds);
  Alcotest.(check int) "every Acquire completed" total !granted;
  check_budget "ownership Acquire" ~inputs:!inputs ~words:!acc ~bound:14.8

(* ---------- ownership: the agent path ----------------------------------- *)

module Node = Zeus_core.Node
module OwnA = Zeus_ownership.Agent

(* The same remote Acquire through a fault-free 3-node cluster: node 2
   requests keys node 0 owns, one at a time, each run to quiescence.  The
   words cover everything a granted request costs the simulator — the
   agents' fact sampling, timers and unblocks, the cores, the transport,
   fabric and engine — so an interpreter that starts boxing its tables
   again fails here, not only the core. *)
let agent_keys = warmup + rounds

(* 312.9 words per granted request (3 % of headroom); 584.9 when each
   core effect was a fresh record, each ownership timer a fresh closure
   and input, each fabric delivery built two key tuples, and each frame
   and retransmission timer boxed a float; 743.9 when the
   agents built an input record, an env and a facts record per core input
   and a replica-set list per commit, the datastore queue a record per
   waiting job, and [Node] boxed each phase time it observed; 1527.9 when the
   engine boxed every event time, the fabric built a closure per message
   and boxed the floats of its random draws, and the transport an
   [option] per timer arming, a closure per timer and per flush, a dirty
   list cell per flushed flow and a [Some] per size; 1685.9 when the agents walked an effect list per core input;
   1917.9 with a closure and a job record per received message, a local
   closure building each core input's effect list and a tuple per
   payload in the transport's send ring; 2473.9 with the agent's timers
   and continuations in [Hashtbl]s and the core's tables boxed. *)
let ownership_agent_bound = 322.0

let ownership_agent_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  Cluster.populate_n c ~n:agent_keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let agent = Node.ownership_agent (Cluster.node c 2) in
  let granted = ref 0 and words = ref 0.0 in
  for key = 0 to agent_keys - 1 do
    let before = Gc.minor_words () in
    OwnA.request agent ~key ~kind:OwnM.Acquire ~k:(function
      | Ok () -> incr granted
      | Error _ -> Alcotest.failf "Acquire of key %d refused" key);
    Helpers.drain c;
    if key >= warmup then words := !words +. (Gc.minor_words () -. before)
  done;
  Alcotest.(check int) "every Acquire granted" agent_keys !granted;
  let per_request = !words /. float_of_int rounds in
  if per_request > ownership_agent_bound then
    Alcotest.failf "ownership agent path: %.1f minor words per granted request (budget %.0f)"
      per_request ownership_agent_bound

(* The same remote Acquire with the transport's handlers handing each
   payload straight to the ownership agent: only the agents' own calls are
   metered — node 2's request, then the delivery of each REQ, INV, ACK and
   VAL to an unfenced core, each with its fact sampling, the core's effects
   and their execution (sends into the transport's ring, doorbells, timers
   and unblocks).  The frames, the fabric and the engine run between those
   calls, unmetered, and so does the replay timer each arbitration arms,
   which fires later.  What is left is the protocol's messages, the ACK's
   copy of the data and the data installed at the requester.  143.9
   words per round (3 % of headroom); 290.9 when each core effect was a
   fresh record and each timer a closure. *)
let agent_round_bound = 148.0

let agent_round_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  Cluster.populate_n c ~n:agent_keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let agents = Array.init nodes (fun n -> Node.ownership_agent (Cluster.node c n)) in
  let measure = ref false and words = ref 0.0 in
  Array.iteri
    (fun n agent ->
      Zeus_net.Transport.set_handler (Cluster.transport c) n (fun ~src payload ->
          let before = Gc.minor_words () in
          let ours = OwnA.handle agent ~src payload in
          if !measure then words := !words +. (Gc.minor_words () -. before);
          if not ours then Alcotest.fail "a payload the ownership agent refused"))
    agents;
  let granted = ref 0 and refused = ref 0 in
  let k = function Ok () -> incr granted | Error _ -> incr refused in
  for key = 0 to agent_keys - 1 do
    measure := key >= warmup;
    let before = Gc.minor_words () in
    OwnA.request agents.(2) ~key ~kind:OwnM.Acquire ~k;
    if !measure then words := !words +. (Gc.minor_words () -. before);
    Helpers.drain c
  done;
  Alcotest.(check int) "no Acquire refused" 0 !refused;
  Alcotest.(check int) "every Acquire granted" agent_keys !granted;
  let per_round = !words /. float_of_int rounds in
  if per_round > agent_round_bound then
    Alcotest.failf "ownership agents: %.1f minor words per unfenced round (budget %.0f)"
      per_round agent_round_bound

(* ---------- the agents: core inputs without records --------------------- *)

module ComA = Zeus_commit.Agent
module Table = Zeus_store.Table
module Obj = Zeus_store.Obj
module Types = Zeus_store.Types
module Ots = Zeus_store.Ots
module Tspan = Zeus_telemetry.Trace

(* With its tap off, an agent hands a delivery to its core's entry point
   with its cached env and its own facts record, building nothing.  Node 1
   of a 3-node cluster receives an O-REQ, an O-INV and an O-ACK for each
   of 100 keys it holds a copy of, all from an epoch its core fences, so
   the core itself emits only its doorbell: what is left is the agent's
   own path — the env, the fact sampling of each kind, the entry call and
   the effect walk.  0.01 words per delivery (the clock reads' own boxes);
   17.0 when the agent built an input, an env and a facts record for
   each. *)
let agent_delivery_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  let keys = 100 and epoch = 1_000 in
  Cluster.populate_n c ~n:keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let agent = Node.ownership_agent (Cluster.node c 1) in
  let replicas = Replicas.v ~owner:2 ~readers:[ 0; 1 ] in
  let o_ts = Ots.next Ots.zero ~node:0 in
  let payloads =
    Array.concat
      (List.init keys (fun key ->
           let req_id = { OwnM.origin = 2; seq = key } in
           [|
             OwnM.O_req
               { req_id; key; kind = OwnM.Acquire; requester = 2; requester_has_data = false;
                 epoch };
             OwnM.O_inv
               { req_id; key; o_ts; base_ts = Ots.zero; new_replicas = replicas;
                 kind = OwnM.Acquire; requester = 2; arbiters = [ 0; 1 ]; data_from = Some 0;
                 recovery = false; driver = 0; epoch };
             OwnM.O_ack
               { req_id; key; o_ts; new_replicas = replicas; arbiters = [ 0; 1 ]; sender = 0;
                 data = None; epoch };
           |]))
  in
  let deliver_all () =
    Array.iter
      (fun p -> if not (OwnA.handle agent ~src:0 p) then Alcotest.fail "payload refused")
      payloads
  in
  (* The first pass samples the env. *)
  deliver_all ();
  let passes = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to passes do
    deliver_all ()
  done;
  let words = Gc.minor_words () -. before in
  let per_delivery = words /. float_of_int (passes * Array.length payloads) in
  if per_delivery > 0.1 then
    Alcotest.failf "ownership agent: %.2f minor words per fenced delivery (budget 0)"
      per_delivery

(* An [Api_commit] of one update and its R-INV/R-ACK/R-VAL round through
   the agents of a fault-free 3-node cluster: node 0 commits keys it owns,
   replicated on nodes 1 and 2, one at a time, each run to quiescence.  The
   words cover the commit agents and cores of all three nodes, [Node]'s
   receive path and datastore workers, the transport, fabric and engine.
   187.8 words per round (3 % of headroom); 309.8 when each core effect
   was a fresh record, each fabric delivery built two key tuples, and
   each frame and retransmission timer boxed a float; 345.8 when the
   agents built
   an input record and an env per core input and a replica-set list per
   commit, and the datastore queue a record per waiting job. *)
let commit_agent_bound = 193.0

let commit_agent_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  Cluster.populate_n c ~n:agent_keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let node = Cluster.node c 0 in
  let agent = Node.commit_agent node and table = Node.table node in
  let durable = ref 0 and words = ref 0.0 in
  let on_durable () = incr durable in
  for key = 0 to agent_keys - 1 do
    (* As a local commit leaves the object: a new version, guarded until
       it is durable. *)
    let obj = Table.get table key in
    obj.Obj.t_version <- obj.Obj.t_version + 1;
    obj.Obj.t_state <- Types.T_write;
    obj.Obj.pending_rc <- obj.Obj.pending_rc + 1;
    let updates =
      [ { Txn.key; version = obj.Obj.t_version; data = Value.of_int (key + 1); freed = false } ]
    in
    let before = Gc.minor_words () in
    ComA.commit ~parent:Tspan.null_span agent ~thread:0 ~updates ~on_durable;
    Helpers.drain c;
    if key >= warmup then words := !words +. (Gc.minor_words () -. before)
  done;
  Alcotest.(check int) "every commit durable" agent_keys !durable;
  Alcotest.(check int) "nothing in flight" 0 (ComA.inflight agent);
  let per_round = !words /. float_of_int rounds in
  if per_round > commit_agent_bound then
    Alcotest.failf "commit agent path: %.1f minor words per commit round (budget %.0f)"
      per_round commit_agent_bound

(* A tap gets each input as a fresh record around a copy of the facts the
   core was stepped with: the agent's own facts record, overwritten by
   every later input, never escapes into the log.  Node 2 acquires keys
   node 0 owns with every ownership agent tapped; each logged delivery's
   facts and env, rendered when it was logged, still read the same after
   the run, and no two logged deliveries are one record. *)
let facts_text (f : OwnC.facts) =
  Printf.sprintf "%b %d.%d %b %b %s" f.OwnC.f_exists f.OwnC.f_o_ts.Ots.version
    f.OwnC.f_o_ts.Ots.node f.OwnC.f_is_owner f.OwnC.f_busy
    (match f.OwnC.f_snapshot with
    | Some d -> Printf.sprintf "v%d:%s" d.OwnM.t_version (Bytes.to_string d.OwnM.value)
    | None -> "-")

let env_text (e : OwnC.env) =
  Printf.sprintf "%d %s %b %b" e.OwnC.epoch
    (String.concat "" (Array.to_list (Array.map (fun l -> if l then "1" else "0") e.OwnC.live)))
    e.OwnC.self_alive e.OwnC.trace_on

let tapped_inputs_stay_intact () =
  let c = Helpers.default_cluster ~record_history:false () in
  let keys = 20 in
  Cluster.populate_n c ~n:keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let log = ref [] in
  for n = 0 to nodes - 1 do
    OwnA.set_io_tap (Node.ownership_agent (Cluster.node c n)) (fun input _ ->
        match input with
        | OwnC.Deliver { facts; env; _ } ->
          log := (input, facts_text facts, env_text env) :: !log
        | _ -> ())
  done;
  let agent = Node.ownership_agent (Cluster.node c 2) in
  for key = 0 to keys - 1 do
    OwnA.request agent ~key ~kind:OwnM.Acquire ~k:(function
      | Ok () -> ()
      | Error _ -> Alcotest.failf "Acquire of key %d refused" key);
    Helpers.drain c
  done;
  let log = List.rev !log in
  Alcotest.(check bool) "deliveries logged" true (List.length log >= 2 * keys);
  let rec distinct = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) ->
      if a == b then Alcotest.fail "two logged deliveries are one record";
      distinct rest
    | [ _ ] | [] -> ()
  in
  distinct log;
  List.iteri
    (fun i (input, facts, env) ->
      match input with
      | OwnC.Deliver { facts = f; env = e; _ } ->
        Alcotest.(check string) (Printf.sprintf "delivery %d: facts" i) facts (facts_text f);
        Alcotest.(check string) (Printf.sprintf "delivery %d: env" i) env (env_text e)
      | _ -> ())
    log

(* The effects a tap gets are copies: the core reuses its effect cells
   from one input to the next, and a logged effect must not change with
   them.  Node 2 acquires keys node 0 owns with every ownership agent
   tapped; each logged effect, rendered when it was logged, still reads the
   same after the run, and no two logged effects of the kinds the core
   reuses are one record. *)
let timer_text = function
  | OwnC.T_timeout { seq; key; span } -> Printf.sprintf "timeout %d %d %d" seq key span
  | OwnC.T_cleanup { seq; span } -> Printf.sprintf "cleanup %d %d" seq span
  | OwnC.T_replay { key; o_ts } -> Format.asprintf "replay %d %a" key Ots.pp o_ts

let payload_text p =
  Stdlib.Obj.Extension_constructor.name (Stdlib.Obj.Extension_constructor.of_val p)

let eff_text = function
  | OwnC.Send { dst; size; payload } -> Printf.sprintf "send %d %d %s" dst size (payload_text payload)
  | OwnC.Send_ack_local_data { dst; req_id; key; o_ts; new_replicas; arbiters; epoch } ->
    Format.asprintf "ack-data %d %d.%d %d %a %a %s %d" dst req_id.OwnM.origin req_id.OwnM.seq key
      Ots.pp o_ts Replicas.pp new_replicas
      (String.concat ";" (List.map string_of_int arbiters))
      epoch
  | OwnC.Flush -> "flush"
  | OwnC.Set_timer { token; after; kind } -> Printf.sprintf "timer %d %g %s" token after (timer_text kind)
  | OwnC.Cancel_timer { token } -> Printf.sprintf "cancel %d" token
  | OwnC.Apply_arbiter { key; kind; o_ts; replicas } ->
    Format.asprintf "arbiter %d %a %a %a" key OwnM.pp_kind kind Ots.pp o_ts Replicas.pp replicas
  | OwnC.Apply_requester { key; kind; o_ts; replicas; data } ->
    Format.asprintf "requester %d %a %a %a %b" key OwnM.pp_kind kind Ots.pp o_ts Replicas.pp
      replicas (Option.is_some data)
  | OwnC.Set_o_state { key; o_state } -> Format.asprintf "o-state %d %a" key Types.pp_o_state o_state
  | OwnC.Restore_request_state { key } -> Printf.sprintf "restore %d" key
  | OwnC.Drop_dead_replicas _ -> "drop-dead"
  | OwnC.Notify_request { key; kind; requester } ->
    Format.asprintf "notify-request %d %a %d" key OwnM.pp_kind kind requester
  | OwnC.Notify_owner_change { key; owner } -> Printf.sprintf "notify-owner %d %d" key owner
  | OwnC.Unblock { seq; result } -> Printf.sprintf "unblock %d %b" seq (Result.is_ok result)
  | OwnC.Telemetry (OwnC.Arb_latency { start; stop }) -> Printf.sprintf "latency %h %h" start stop
  | OwnC.Telemetry _ -> "telemetry"

(* The kinds whose cells the core reuses: everything but constants and the
   rare immutable effects. *)
let reused = function
  | OwnC.Flush | OwnC.Drop_dead_replicas _ -> false
  | OwnC.Telemetry (OwnC.Arb_latency _) -> true
  | OwnC.Telemetry _ -> false
  | _ -> true

let tapped_effects_stay_intact () =
  let c = Helpers.default_cluster ~record_history:false () in
  let keys = 20 in
  Cluster.populate_n c ~n:keys ~owner_of:(fun _ -> 0) (fun k -> Value.of_int k);
  let log = ref [] in
  for n = 0 to nodes - 1 do
    OwnA.set_io_tap (Node.ownership_agent (Cluster.node c n)) (fun _ effs ->
        List.iter (fun e -> log := (e, eff_text e) :: !log) effs)
  done;
  let agent = Node.ownership_agent (Cluster.node c 2) in
  for key = 0 to keys - 1 do
    OwnA.request agent ~key ~kind:OwnM.Acquire ~k:(function
      | Ok () -> ()
      | Error _ -> Alcotest.failf "Acquire of key %d refused" key);
    Helpers.drain c
  done;
  let log = List.rev !log in
  let count p = List.length (List.filter (fun (e, _) -> p e) log) in
  Alcotest.(check int) "every grant logged" keys
    (count (function OwnC.Apply_requester _ -> true | _ -> false));
  Alcotest.(check bool) "timers logged" true
    (count (function OwnC.Set_timer _ -> true | _ -> false) >= 2 * keys);
  List.iteri
    (fun i (e, text) -> Alcotest.(check string) (Printf.sprintf "effect %d" i) text (eff_text e))
    log;
  let rec distinct = function
    | [] -> ()
    | e :: rest ->
      if List.exists (fun e' -> e' == e) rest then
        Alcotest.failf "one record logged twice: %s" (eff_text e);
      distinct rest
  in
  distinct (List.filter reused (List.map fst log))

(* ---------- the transaction path, end to end ---------------------------- *)

module Smallbank = Zeus_workload.Smallbank
module Spec = Zeus_workload.Spec
module Driver = Zeus_workload.Driver

(* Smallbank with every write local through a fault-free 3-node cluster,
   every app thread in a closed loop: the words cover the whole local path
   — the spec walk, [Node]'s operations and commit, [Txn], the datastore
   worker pool, both agents and cores, the transport, fabric and engine.
   A layer that starts allocating per operation or per message again
   fails here.  349.7 words per committed transaction (3 % of headroom);
   405.0 when the spec built a cursor and its closures per transaction,
   [Txn] a tuple or a cons per snapshot and lock, the generator boxed its
   mix draw and the driver built two continuations per transaction;
   439.3 when each core effect was a fresh record, each fabric delivery
   built two key tuples, and each frame and retransmission timer boxed a
   float; 499.4 when the agents built an input record and an env per core input
   and a replica-set list per commit, the datastore queue a record per
   waiting job, and [Node] boxed each phase time it observed; 554.2 when
   [Node] built a run, a context, a times record and its phase
   closures per transaction and attempt; 616.6 when the engine, fabric
   and transport boxed and built closures per event and message; 673.6
   when the agents walked an effect list per core input; 1,040.9 when the
   spec built a closure per key and decoded every field to bump a counter,
   [Node] built its guards, continuations and attempt closures per
   operation, the worker pool a closure and a job record per message, and
   the transport a tuple per payload. *)
let smallbank_bound = 360.2

(* Drive [issue] on every app thread of [c] and bound the minor words per
   committed transaction. *)
let txn_path_budget ~what ~bound c ~issue =
  let committed () = Cluster.total_committed c + Cluster.total_ro_committed c in
  (* A first run warms the pools, windows and tables up. *)
  ignore (Driver.run c ~warmup_us:0.0 ~duration_us:500.0 ~issue ());
  let c0 = committed () and before = Gc.minor_words () in
  let r = Driver.run c ~warmup_us:0.0 ~duration_us:5_000.0 ~issue () in
  let words = Gc.minor_words () -. before and txns = committed () - c0 in
  Alcotest.(check int) "no aborts" 0 r.Driver.aborted;
  Alcotest.(check bool) "thousands committed" true (txns >= 2_000);
  let per_txn = words /. float_of_int txns in
  if per_txn > bound then
    Alcotest.failf "%s: %.1f minor words per committed transaction (budget %.0f)" what per_txn
      bound

let smallbank_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  let w = Smallbank.create ~accounts_per_node:1_000 ~nodes (Zeus_sim.Rng.create 5L) in
  Smallbank.populate w c;
  txn_path_budget ~what:"Smallbank" ~bound:smallbank_bound c ~issue:(Spec.issue (Smallbank.gen w))

(* Read-only transactions of two local keys each ([Spec.read_txn]) through
   the same cluster and driver: the words cover [Node]'s slot, dispatch
   and local commit, [Txn]'s snapshot reads and the spec walk, with no
   replication and no message.  110.4 words per committed transaction
   (3 % of headroom), about 100 of them the driver's two latency
   percentiles, whose sort boxes two floats per comparison: the row
   below meters the same path without the driver.  170.4 when the spec
   built a cursor and its closures per transaction and [Txn] a tuple and
   a cons per snapshot (176 was the bound until the core effects, which
   these transactions never reach, became reused cells); 178.4 when
   [Node] boxed each phase time it observed; 216.4 when [Node] built a
   run, a context and a times record and scheduled three closures per
   transaction. *)
let read_only_bound = 113.7

let read_only_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  let keys = 3_000 in
  Cluster.populate_n c ~n:keys ~owner_of:(fun i -> i mod nodes) (fun _ -> Value.of_int 0);
  (* One spec per key pair, built up front: issuing one allocates
     nothing of its own. *)
  let specs = Array.init keys (fun i -> Spec.read_txn [ i; (i + 1) mod keys ]) in
  let next = ref 0 in
  txn_path_budget ~what:"read-only" ~bound:read_only_bound c ~issue:(fun node ~thread k ->
      next := (!next + 1) mod keys;
      Spec.run_on_zeus node ~thread specs.(!next) k)

(* Prebuilt specs through [Spec], [Node] and [Txn] alone: every app
   thread issues its node's local specs back to back, alternating a
   read-only transaction of two keys and a write of one, from
   continuations built once, so neither the driver nor its latency
   histogram is metered.  The words cover the spec's cursor, [Node]'s
   slot, [Txn]'s snapshots, locks and private copies, and the writes'
   reliable commit.  70.7 words per committed transaction (3 % of
   headroom): 5.3 per read-only transaction and 129.3 per write alone;
   105.5 (48.3 and 159.7) when the spec built a cursor and its closures
   per transaction, [Txn] a tuple or a cons per snapshot and lock, and
   [Node] summed and boxed every attempt's dispatch delay. *)
let spec_path_bound = 72.8

let spec_path_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  let keys = 3_000 in
  Cluster.populate_n c ~n:keys ~owner_of:(fun i -> i mod nodes) (fun _ ->
      Value.padded [ 0 ] ~size:64);
  let eng = Cluster.engine c in
  let threads = (Cluster.config c).Config.app_threads in
  let stop = ref 0.0 in
  (* Node [n]'s specs touch only the keys it owns. *)
  let per_node = keys / nodes in
  for n = 0 to nodes - 1 do
    let node = Cluster.node c n in
    let key i = n + (nodes * (i mod per_node)) in
    let specs =
      Array.init per_node (fun i ->
          if i land 1 = 0 then Spec.read_txn [ key i; key (i + 1) ] else Spec.write_txn [ key i ])
    in
    for thread = 0 to threads - 1 do
      let next = ref thread in
      let rec loop () =
        if Engine.now eng < !stop then begin
          next := (!next + 1) mod per_node;
          Spec.run_on_zeus node ~thread specs.(!next) on_done
        end
      and on_done (_ : Txn.outcome) = loop () in
      ignore (Engine.schedule eng ~after:(0.01 *. float_of_int thread) loop)
    done
  done;
  let committed () = Cluster.total_committed c + Cluster.total_ro_committed c in
  (* A first stretch warms the pools, windows and tables up. *)
  stop := 500.0;
  Engine.run ~until:!stop eng;
  let c0 = committed () and before = Gc.minor_words () in
  stop := 5_500.0;
  Engine.run ~until:!stop eng;
  let words = Gc.minor_words () -. before and txns = committed () - c0 in
  Alcotest.(check int) "no aborts" 0 (Cluster.total_aborted c);
  Alcotest.(check bool) "thousands committed" true (txns >= 2_000);
  let per_txn = words /. float_of_int txns in
  if per_txn > spec_path_bound then
    Alcotest.failf "prebuilt specs: %.1f minor words per committed transaction (budget %.1f)"
      per_txn spec_path_bound

(* ---------- commit: one INV/ACK/VAL round ------------------------------- *)

(* 7.3 words per input (3 % of headroom); 12.4 when each effect was a
   fresh record; 21.0 when [handle] copied the effects into a
   list and boxed a result pair per input; 55.0 when the core also kept
   its slots in hashtables and built a context, a closure and a reversed
   list per input. *)

let com_env = { ComC.epoch = 0; live = Array.make nodes true; trace_on = false }

(* Node 0 owns, every other node reads. *)
let everyone = Replicas.v ~owner:0 ~readers:[ 1; 2 ]

let commit_round_budget () =
  let cores = Array.init nodes (fun self -> ComC.create ~self ~nodes ()) in
  let acc = ref 0.0 and inputs = ref 0 in
  let net = Queue.create () in
  let durable = ref 0 in
  let run ~measure input dst =
    let core = cores.(dst) in
    let effs =
      metered ~measure ~acc (ComC.effects core) (fun () -> ComC.step core input)
    in
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
         { thread = 0; updates; replica_sets = [ everyone ]; has_durable = false;
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
  check_budget "commit round" ~inputs:!inputs ~words:!acc ~bound:7.5

(* ---------- commit: a pipelined round ----------------------------------- *)

(* [pipelined] slots of one thread in flight at once, their ACKs delivered
   newest first: every slot but the oldest completes while the oldest is
   still open, so its R-VALs vouch for nothing new, and the oldest slot's
   R-VALs then carry the whole round as their clear mark.  The first round
   opens 3 slots, so the next one starts mid-ring and the coordinator's
   and followers' windows (8 cells to start) grow while live and wrapped.
   Every round ends with nothing in flight, stored or buffered.  7.7
   words per input (3 % of headroom); 12.9 when each effect was a fresh
   record; 21.4 through [handle]'s effect list and result pair. *)
let pipelined = 16

let commit_pipelined_budget () =
  let cores = Array.init nodes (fun self -> ComC.create ~self ~nodes ()) in
  let acc = ref 0.0 and inputs = ref 0 and durable = ref 0 in
  let run ~measure dst input =
    let core = cores.(dst) in
    let effs =
      metered ~measure ~acc (ComC.effects core) (fun () -> ComC.step core input)
    in
    if measure then incr inputs;
    List.filter_map
      (function
        | ComC.Send { dst = d; payload; _ } -> Some (dst, d, payload)
        | ComC.Validate_local _ ->
          incr durable;
          None
        | _ -> None)
      effs
  in
  let deliver ~measure msgs =
    List.concat_map
      (fun (src, dst, payload) ->
        run ~measure dst (ComC.Deliver { src; payload; env = com_env }))
      msgs
  in
  let total = warmup + rounds in
  let next_slot = ref 0 in
  for round = 0 to total - 1 do
    let measure = round >= warmup in
    let depth = if round = 0 then 3 else pipelined in
    let base = !next_slot in
    next_slot := base + depth;
    let invs =
      List.concat
        (List.init depth (fun i ->
             let key = base + i in
             let updates =
               [ { Txn.key; version = 1; data = Value.of_int key; freed = false } ]
             in
             run ~measure 0
               (ComC.Api_commit
                  { thread = 0; updates; replica_sets = [ everyone ]; has_durable = false;
                    env = com_env })))
    in
    let acks = deliver ~measure invs in
    Alcotest.(check int) "slots in flight" depth (ComC.inflight cores.(0));
    let vals = deliver ~measure (List.rev acks) in
    Alcotest.(check int) "nothing in flight" 0 (ComC.inflight cores.(0));
    let marks =
      List.map
        (function
          | _, _, ComM.R_val { tx; upto; _ } -> (tx.slot, upto)
          | _ -> Alcotest.fail "ACKs answered with something but R-VALs")
        vals
    in
    let last = base + depth - 1 in
    let expected =
      List.concat_map
        (fun s ->
          let upto = if s = base then last else base - 1 in
          [ (s, upto); (s, upto) ])
        (List.init depth (fun i -> last - i))
    in
    Alcotest.(check (list (pair int int))) "R-VAL clear marks" expected marks;
    Alcotest.(check int) "VALs send nothing" 0 (List.length (deliver ~measure vals))
  done;
  Alcotest.(check int) "inputs per round" (pipelined * 7) (!inputs / rounds);
  Alcotest.(check int) "every commit durable" (3 + ((total - 1) * pipelined)) !durable;
  Array.iter
    (fun c ->
      Alcotest.(check int) "nothing stored" 0 (ComC.stored_invs c);
      Alcotest.(check int) "nothing buffered" 0 (ComC.buffered_invs c))
    cores;
  check_budget "pipelined commit round" ~inputs:!inputs ~words:!acc ~bound:7.9

(* ---------- commit: the slot window ------------------------------------- *)

module Window = Zeus_store.Window

(* Eight slots fill the initial ring exactly and wrap it (slots 8-10 sit
   in the cells of 0-2); the slots those cells alias, below [low] or at
   or above [high], must read absent.  A ninth slot grows the ring while
   every other slot is live. *)
let slot_window () =
  let w = Window.create ~dummy:"" in
  let present = Alcotest.(list (pair int string)) in
  let contents () =
    let l = ref [] in
    Window.iter (fun s v -> l := (s, v) :: !l) w;
    List.rev !l
  in
  for s = 3 to 10 do
    Window.set w s (string_of_int s)
  done;
  Alcotest.(check (pair int int)) "bounds" (3, 11) (Window.low w, Window.high w);
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "slot %d absent" s) false (Window.mem w s))
    [ 0; 1; 2; 11; 12; 13; -1 ];
  Alcotest.(check string) "wrapped slot" "9" (Window.find w 9);
  Window.set w 11 "11";
  Alcotest.(check present) "grown while live"
    (List.init 9 (fun i -> (i + 3, string_of_int (i + 3))))
    (contents ());
  Window.remove w 3;
  Window.remove w 5;
  Window.remove w 11;
  Alcotest.(check (pair int int)) "bounds tighten" (4, 11) (Window.low w, Window.high w);
  Alcotest.(check bool) "removed slot absent" false (Window.mem w 5);
  Window.remove_below w 8;
  Alcotest.(check present) "remove_below" [ (8, "8"); (9, "9"); (10, "10") ] (contents ());
  Alcotest.(check int) "length" 3 (Window.length w);
  let snapshot = Window.copy String.uppercase_ascii w in
  Window.set snapshot 20 "20";
  Window.remove w 9;
  Alcotest.(check present) "copy unaffected" [ (8, "8"); (10, "10") ] (contents ());
  Alcotest.(check int) "copy keeps its own" 4 (Window.length snapshot);
  Window.remove_below w 100;
  Alcotest.(check int) "emptied" 0 (Window.length w);
  Window.set w 1000 "far";
  Alcotest.(check present) "restarts anywhere when empty" [ (1000, "far") ] (contents ())

(* The core's windows through its API: ACKs for slots whose ring cells
   alias open slots — below the commit watermark or at or above
   [next_slot] — are absent and change nothing, and a [Core.copy] taken
   with slots open and R-INVs stored evolves apart from its original. *)
let core_window_aliasing () =
  let cores = Array.init nodes (fun self -> ComC.create ~self ~nodes ()) in
  let pipe = { ComM.node = 0; thread = 0 } in
  let commit key =
    let updates = [ { Txn.key; version = 1; data = Value.of_int key; freed = false } ] in
    snd
      (ComC.handle cores.(0)
         (ComC.Api_commit
            { thread = 0; updates; replica_sets = [ everyone ]; has_durable = false;
              env = com_env }))
  in
  let deliver dst src payload =
    snd (ComC.handle cores.(dst) (ComC.Deliver { src; payload; env = com_env }))
  in
  let ack slot sender = deliver 0 sender (ComM.R_ack { tx = { pipe; slot }; sender }) in
  (* slots 0-7 validate; 8-15 stay open (node 2 never acks) *)
  let invs = List.concat (List.init 16 commit) in
  List.iter
    (function
      | ComC.Send { dst = 1; payload; _ } -> ignore (deliver 1 0 payload)
      | _ -> ())
    invs;
  for slot = 0 to 15 do
    ignore (ack slot 1)
  done;
  for slot = 0 to 7 do
    ignore (ack slot 2)
  done;
  Alcotest.(check int) "open slots" 8 (ComC.inflight cores.(0));
  let before = ComC.fingerprint cores.(0) in
  List.iter
    (fun slot ->
      Alcotest.(check int) (Printf.sprintf "ack for slot %d ignored" slot) 0
        (List.length (ack slot 2)))
    [ 0; 7; 16; 17; 24; -1 ];
  Alcotest.(check string) "state unchanged" before (ComC.fingerprint cores.(0));
  let snap = ComC.copy cores.(0) and fsnap = ComC.copy cores.(1) in
  let fbefore = ComC.fingerprint cores.(1) in
  Alcotest.(check int) "follower stores every slot (no VAL delivered)" 16
    (ComC.stored_invs cores.(1));
  ignore (ack 8 2);
  Alcotest.(check int) "original advanced" 7 (ComC.inflight cores.(0));
  Alcotest.(check int) "copy still open" 8 (ComC.inflight snap);
  Alcotest.(check string) "copy unchanged" before (ComC.fingerprint snap);
  ignore
    (ComC.handle fsnap
       (ComC.Deliver
          {
            src = 0;
            payload = ComM.R_val { tx = { pipe; slot = 8 }; upto = 8; epoch = 0 };
            env = com_env;
          }));
  Alcotest.(check int) "copied follower validated" 15 (ComC.stored_invs fsnap);
  Alcotest.(check int) "original follower untouched" 16 (ComC.stored_invs cores.(1));
  Alcotest.(check string) "original follower fingerprint" fbefore (ComC.fingerprint cores.(1))

(* ---------- engine: scheduling and dispatch ----------------------------- *)

(* A prebuilt closure scheduled at a constant delay costs the engine no
   words: the event time stays unboxed down to the heap.  A dispatch that
   moves the clock boxes the new time (2 words); one at the current
   instant allocates nothing.  The engine boxed the time 2 words per
   [schedule] (4 with a computed delay) and 4 per dispatch when the heap
   helpers were calls of their own. *)
let events = 1_000

let engine_budget () =
  let e = Engine.create () in
  let fired = ref 0 in
  let fn () = incr fired in
  let schedule_all () =
    for _ = 1 to events do
      ignore (Engine.schedule e ~after:1.0 fn)
    done
  in
  (* The first batch grows the slab and the heap. *)
  schedule_all ();
  Engine.run e;
  let w0 = Gc.minor_words () in
  schedule_all ();
  let w1 = Gc.minor_words () in
  Engine.run e;
  let w2 = Gc.minor_words () in
  (* Each at its own time: every dispatch moves the clock. *)
  for i = 1 to events do
    ignore (Engine.schedule_at e ~time:(Engine.now e +. float_of_int i) fn)
  done;
  let w3 = Gc.minor_words () in
  Engine.run e;
  let w4 = Gc.minor_words () in
  Alcotest.(check int) "every event fired" (3 * events) !fired;
  let per w = w /. float_of_int events in
  (* [Gc.minor_words] itself may box its result: allow a few words per
     measurement, not one per event. *)
  if w1 -. w0 > 4.0 then
    Alcotest.failf "engine: %.2f minor words per schedule (budget 0)" (per (w1 -. w0));
  if w2 -. w1 > 4.0 +. 2.0 then
    Alcotest.failf "engine: %.2f minor words per same-instant dispatch (budget 0)"
      (per (w2 -. w1));
  if per (w4 -. w3) > 2.01 then
    Alcotest.failf "engine: %.2f minor words per dispatch (budget 2, the clock box)"
      (per (w4 -. w3))

(* ---------- transport: a steady batched stream --------------------------- *)

module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport

type Zeus_net.Msg.payload += Tick

(* Node 0 sends [fan] payloads to each of nodes 1 and 2 every 5 µs and
   rings the doorbell; nothing flows back but the delayed acks.  The
   words per payload cover the whole send path under the cores: the send
   ring, the flush event, frame assembly, the fabric's delivery, the
   receive window and the delayed ack, with the engine under each.  What
   is left is the wire itself: each frame, its payload list and the
   standalone ack, plus the floats boxed to cross into the engine (a
   computed delay, a new clock).  7.4 words per payload (3 % of
   headroom): frames and payload lists 4.5, clock boxes 1.3, the
   fabric's boxed delays 0.75, standalone acks 0.4, the RTO's pushed-out
   deadlines 0.06, and about 0.4 not attributed.  10.2 when each delivery
   built two partition-key tuples (2.25), each frame boxed its occupancy
   for the histogram (0.5) and each RTO fire recomputed and boxed its
   un-backed-off delay (0.13); 32.1 with an [option] per timer arming, a closure per
   timer, per flush and per fabric delivery, a dirty list cell per
   flushed flow, a boxed [Some] per size, boxed random draws and the
   engine's boxed times. *)
let fan = 4
let stream_ticks = 2_000
let stream_bound = 7.6

let transport_stream_budget () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes Fabric.default_config in
  let t = Transport.create f in
  let received = ref 0 in
  for n = 0 to nodes - 1 do
    Transport.set_handler t n (fun ~src:_ _ -> incr received)
  done;
  let ticks = ref 0 in
  let rec tick () =
    incr ticks;
    if !ticks <= stream_ticks then begin
      for _ = 1 to fan do
        Transport.send t ~src:0 ~dst:1 ~size:64 Tick;
        Transport.send t ~src:0 ~dst:2 ~size:64 Tick
      done;
      Transport.flush t 0;
      ignore (Engine.schedule e ~after:5.0 tick_fn)
    end
  and tick_fn () = tick () in
  (* A tenth of the stream warms the windows, rings and pools up. *)
  ignore (Engine.schedule e ~after:0.0 tick_fn);
  Engine.run ~until:(5.0 *. float_of_int (stream_ticks / 10)) e;
  let r0 = !received and w0 = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. w0 and payloads = !received - r0 in
  Alcotest.(check int) "every payload delivered" (2 * fan * stream_ticks) !received;
  Alcotest.(check int) "nothing unacked" 0 (Transport.tx_backlog t);
  Alcotest.(check int) "no retransmission" 0 (Transport.stats t).Transport.retransmitted;
  let per_payload = words /. float_of_int payloads in
  if per_payload > stream_bound then
    Alcotest.failf "transport stream: %.1f minor words per payload (budget %.1f)" per_payload
      stream_bound

(* ---------- fabric: a delivery ------------------------------------------ *)

(* Node 0 sends [fabric_msgs] prebuilt payloads to node 1 at one instant
   over a jitter-free fabric, so they all land at one later instant: the
   dispatch moves the clock once, and each delivery costs the fabric what
   its partition checks allocate — nothing.  They built a key tuple for
   each table and hashed it, 6 words per delivery.  Partitions and one-way
   blocks must still drop messages, and heal. *)
let fabric_msgs = 1_000

let fabric_delivery_budget () =
  let e = Engine.create () in
  let f = Fabric.create e ~nodes { Fabric.default_config with Fabric.jitter_us = 0.0 } in
  let received = Array.make nodes 0 in
  for n = 0 to nodes - 1 do
    Fabric.set_handler f n (fun ~src:_ _ -> received.(n) <- received.(n) + 1)
  done;
  let send_all ~src ~dst =
    for _ = 1 to fabric_msgs do
      Fabric.send f ~src ~dst ~size:64 Tick
    done
  in
  (* The first batch grows the flight pool and the engine's heap. *)
  send_all ~src:0 ~dst:1;
  Engine.run e;
  send_all ~src:0 ~dst:1;
  let before = Gc.minor_words () in
  Engine.run e;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every message delivered" (2 * fabric_msgs) received.(1);
  (* The clock box of the one dispatch that moves the clock. *)
  if words > 4.0 then
    Alcotest.failf "fabric: %.2f minor words per delivery (budget 0)"
      (words /. float_of_int fabric_msgs);
  let delivered ~src ~dst =
    let r0 = received.(dst) in
    Fabric.send f ~src ~dst ~size:64 Tick;
    Engine.run e;
    received.(dst) > r0
  in
  Fabric.partition f 0 1;
  Alcotest.(check (list bool)) "a partition drops both ways, not elsewhere" [ false; false; true ]
    [ delivered ~src:0 ~dst:1; delivered ~src:1 ~dst:0; delivered ~src:0 ~dst:2 ];
  Fabric.heal f 1 0;
  Alcotest.(check (list bool)) "healed" [ true; true ]
    [ delivered ~src:0 ~dst:1; delivered ~src:1 ~dst:0 ];
  Fabric.partition_oneway f ~src:2 ~dst:0;
  Alcotest.(check (list bool)) "a one-way block drops one way" [ false; true ]
    [ delivered ~src:2 ~dst:0; delivered ~src:0 ~dst:2 ];
  Fabric.heal_oneway f ~src:2 ~dst:0;
  Alcotest.(check bool) "one-way block healed" true (delivered ~src:2 ~dst:0);
  Fabric.partition f 1 2;
  Fabric.partition_oneway f ~src:0 ~dst:1;
  Fabric.heal_all f;
  Alcotest.(check (list bool)) "everything healed" [ true; true; true ]
    [ delivered ~src:1 ~dst:2; delivered ~src:2 ~dst:1; delivered ~src:0 ~dst:1 ]

(* ---------- detector: an arrival ---------------------------------------- *)

module Detector = Zeus_membership.Detector

(* Arrivals from one peer every 10 µs, give or take: the detector's
   estimate of the inter-arrival time and its deviation are stored as raw
   floats.  They boxed two floats per arrival when the estimate shared a
   record with the sample count. *)
let detector_arrival_budget () =
  let d = Detector.create Detector.default_config ~node:0 ~nodes ~now:0.0 in
  let arrivals = 1_000 in
  (* Clock readings, boxed up front as the engine's are. *)
  let times = List.init (2 * arrivals) (fun i -> (10.0 *. float_of_int i) +. float_of_int (i mod 3)) in
  let first, rest = List.partition (fun t -> t < 10.0 *. float_of_int arrivals) times in
  let note now = Detector.note_arrival d ~src:1 ~now in
  List.iter note first;
  let before = Gc.minor_words () in
  List.iter note rest;
  let words = Gc.minor_words () -. before in
  if words > 4.0 then
    Alcotest.failf "detector: %.2f minor words per arrival (budget 0)"
      (words /. float_of_int arrivals);
  Alcotest.(check bool) "the timeout follows the arrivals" true
    (Detector.timeout_us d ~peer:1 = Detector.default_config.Detector.min_timeout_us)

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
   own sampling and goodput-window ticks.  The budget covers the ticks,
   not the per-key scan: 17.6 words per sample, 33.4 when each arming
   built its closure and boxed its event id in a [Some]. *)
let monitor_sample_budget () =
  let c = Helpers.default_cluster ~record_history:false () in
  Cluster.populate_n c ~n:600 ~owner_of:(fun k -> k mod nodes) (fun k -> Value.of_int k);
  let mon = Monitor.attach c in
  let sample_us = Monitor.sample_us in
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
  if per_sample > 20.0 then
    Alcotest.failf "%.1f minor words per monitor sample (budget 20)" per_sample

(* ---------- populate: per-key memory ------------------------------------ *)

module Tatp = Zeus_workload.Tatp

(* A TATP-shaped store (three rows per subscriber, 48-byte values, three
   nodes, replication degree 3, three directory replicas): per key, one
   object per replica, one entry per directory replica, and whatever the
   key shares.  It measures 68.0 live words per key; 84.7 with a [Some]
   box per table and directory slot, a boxed owner's [o_replicas] and
   arrays grown by doubling; and 115.5 before that, with a [Hashtbl]
   directory and a fresh replica set and value copy per replica.
   DESIGN.md §12 itemises the budget. *)
let tatp_subscribers = 10_000

let populate_live_words () =
  let c = Helpers.default_cluster ~record_history:false () in
  let w = Tatp.create ~subscribers_per_node:tatp_subscribers ~nodes (Zeus_sim.Rng.create 1L) in
  let keys = Tatp.total_keys w in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  Tatp.populate w c;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let objects = ref 0 in
  for n = 0 to nodes - 1 do
    objects := !objects + Table.size (Node.table (Cluster.node c n))
  done;
  Alcotest.(check int) "one object per replica" (3 * keys) !objects;
  let per_key = float_of_int (live1 - live0) /. float_of_int keys in
  if per_key > 75.0 then
    Alcotest.failf "%.1f live words per key after populate (budget 75)" per_key

(* What a smaller store of the same shape keeps resident: every word the
   three tables and three directory shards reach, shared words counted
   once.  Unlike live words, this leaves out the rest of the cluster.  It
   measures 68.03 words per key; 86.95 with a [Some] box per slot, a boxed
   owner's [o_replicas] and arrays grown by doubling. *)
let resident_words () =
  let c = Helpers.default_cluster ~record_history:false () in
  let w = Tatp.create ~subscribers_per_node:1_000 ~nodes (Zeus_sim.Rng.create 1L) in
  Tatp.populate w c;
  let stores =
    List.init nodes (fun n ->
        let node = Cluster.node c n in
        Stdlib.Obj.repr (Node.table node, OwnA.directory (Node.ownership_agent node)))
  in
  let words = Stdlib.Obj.reachable_words (Stdlib.Obj.repr stores) in
  let per_key = float_of_int words /. float_of_int (Tatp.total_keys w) in
  if per_key > 70.0 then
    Alcotest.failf "%.2f resident words per key after populate (budget 70)" per_key

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
      let shared what owner (r : Replicas.t) =
        if r != home owner then
          Alcotest.failf "%s owner=%d: %s has its own replica set" label owner what
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
                (Zeus_ownership.Directory.find dir key).Zeus_ownership.Directory.replicas)
            (Config.dir_nodes_for config ~key)
        done
      done;
      (* An object created by a transaction takes its creator's set. *)
      let key = 1000 in
      let result = ref None in
      Node.run_write (Cluster.node c 0) ~thread:0
        ~exec_us:0.0 ~body:(fun ctx commit ->
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
    tc "ownership agent: remote Acquire allocation budget" ownership_agent_budget;
    tc "ownership agent: fenced deliveries allocate nothing, taps off" agent_delivery_budget;
    tc "ownership agents: unfenced round allocation budget" agent_round_budget;
    tc "commit agent: Api_commit round allocation budget, taps off" commit_agent_budget;
    tc "io taps: logged inputs keep the facts and env they were stepped with"
      tapped_inputs_stay_intact;
    tc "io taps: logged effects are copies that keep their fields" tapped_effects_stay_intact;
    tc "transaction path: Smallbank allocation budget" smallbank_budget;
    tc "transaction path: read-only allocation budget" read_only_budget;
    tc "transaction path: prebuilt specs through Spec, Node and Txn" spec_path_budget;
    tc "commit core: INV/ACK/VAL allocation budget" commit_round_budget;
    tc "commit core: pipelined round, ACKs newest first" commit_pipelined_budget;
    tc "commit core: slot window" slot_window;
    tc "commit core: window aliasing and copy independence" core_window_aliasing;
    tc "engine: schedule and dispatch allocation budget" engine_budget;
    tc "transport: steady batched stream allocation budget" transport_stream_budget;
    tc "fabric: a delivery allocates nothing; partitions drop and heal" fabric_delivery_budget;
    tc "detector: an arrival allocates nothing" detector_arrival_budget;
    tc "resource: queued jobs alone are promoted" resource_queue_promotion;
    tc "chaos monitor: steady sample allocation budget" monitor_sample_budget;
    tc "populate: live words per TATP-shaped key" populate_live_words;
    tc "populate: resident words per TATP-shaped key" resident_words;
    tc "populate: one shared replica set per owner" home_replica_sets;
  ]
