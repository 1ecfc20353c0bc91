(* The per-layer ledger of a traced run, measured from outside the program.

   After the simulation has ended, the benchmark replays what it recorded
   into fresh instances of each layer and times only those calls:

   - the agents' io-tap logs into fresh [Core.create] states (ownership,
     commit), checking every replayed effect list against the recorded
     one;
   - the core [Send]/[Flush] effects, at their recorded virtual times,
     through a fresh [Engine] (no-op events), [Engine]+[Fabric], and
     [Engine]+[Fabric]+[Transport]; each layer's cost is its replay minus
     the layers under it;
   - the workload generator from its seed, and the generated specs through
     a standalone [Table] with [Txn.open_read/open_write/put/local_commit].

   Replays run on warm caches with none of the surrounding runtime, so
   their costs are lower bounds, clamped at zero where a difference of
   replays falls below the timer's resolution; [node.residual_ns_per_txn]
   (computed by the caller from the untraced wall time per transaction)
   absorbs the rest.  Counters and histograms the program already keeps
   are read directly. *)

module Engine = Zeus_sim.Engine
module Stats = Zeus_sim.Stats
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport
module Msg = Zeus_net.Msg
module Metrics = Zeus_telemetry.Metrics
module Hub = Zeus_telemetry.Hub
module Trace = Zeus_telemetry.Trace
module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Table = Zeus_store.Table
module Obj = Zeus_store.Obj
module Txn = Zeus_store.Txn
module Types = Zeus_store.Types
module Value = Zeus_store.Value
module OwnA = Zeus_ownership.Agent
module OwnC = Zeus_ownership.Core
module ComA = Zeus_commit.Agent
module ComC = Zeus_commit.Core
module Spec = Zeus_workload.Spec

type Msg.payload += Replay_ack

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let s = Unix.gettimeofday () -. t0 in
  (s, Gc.minor_words () -. w0)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ns s n = ratio (s *. 1e9) (float_of_int n)
let nan0 x = if Float.is_nan x then 0.0 else x

(* A replayed core must reproduce every recorded effect list. *)
let check_steps name recorded replayed =
  let bad = ref None in
  Array.iteri
    (fun i effs -> if !bad = None && compare effs replayed.(i) <> 0 then bad := Some i)
    recorded;
  match !bad with
  | Some i -> (name, Error (Printf.sprintf "input %d: replayed effects differ" i))
  | None -> (name, Ok ())

(* ---------- protocol cores -------------------------------------------------- *)

type core_cost = {
  inputs : int;  (** replayed inputs, seeding excluded *)
  effects : int;
  core_s : float;
  core_words : float;
  seeds : int;
  seed_s : float;
  kinds : (string * int) list;
}

let count_kinds kind_of inputs =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      let k = kind_of i in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    inputs;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let own_kind = function
  | OwnC.Deliver _ -> "deliver"
  | OwnC.Api_request _ -> "request"
  | OwnC.Api_register _ | OwnC.Api_forget _ -> "register"
  | OwnC.Api_seed _ -> "seed"
  | OwnC.Api_recovery_done _ -> "recovery_done"
  | OwnC.Timer_fire _ -> "timer"
  | OwnC.View_change _ -> "view_change"
  | OwnC.Reset -> "reset"

let com_kind = function
  | ComC.Deliver _ -> "deliver"
  | ComC.Api_commit _ -> "commit"
  | ComC.View_change _ -> "view_change"
  | ComC.Reset -> "reset"

(* Every replay runs [rounds] times on fresh state and keeps the fastest
   round: the warm-cache lower bound, and steadier than a single round. *)
let rounds = 3

let best_of f =
  let runs = List.init rounds (fun _ -> f ()) in
  let best g = List.fold_left (fun a r -> Float.min a (g r)) Float.infinity runs in
  (runs, best)

(* Replay [(node, input, recorded effects)] into fresh cores; a prefix of
   seeding inputs ([is_seed]) is timed apart from the rest. *)
let replay_core ~name ~create ~handle ~is_seed ~kind_of log =
  let total = Array.length log in
  let inputs = Array.map (fun (_, i, _) -> i) log and nodes = Array.map (fun (n, _, _) -> n) log in
  let seeds = ref 0 in
  while !seeds < total && is_seed inputs.(!seeds) do
    incr seeds
  done;
  let seeds = !seeds in
  let out = Array.make total [] in
  let _, best =
    best_of (fun () ->
        (* Collect the previous round's cores first: with the program's lazy
           major GC they would otherwise pile up (hundreds of MB on TATP). *)
        Gc.compact ();
        let cores = create () in
        let feed lo hi () =
          for i = lo to hi - 1 do
            out.(i) <- handle cores.(nodes.(i)) inputs.(i)
          done
        in
        let seed_s, _ = timed (feed 0 seeds) in
        let core_s, core_words = timed (feed seeds total) in
        (seed_s, core_s, core_words))
  in
  let effects = ref 0 in
  for i = seeds to total - 1 do
    effects := !effects + List.length out.(i)
  done;
  ( {
      inputs = total - seeds;
      effects = !effects;
      core_s = best (fun (_, s, _) -> s);
      core_words = best (fun (_, _, w) -> w);
      seeds;
      seed_s = best (fun (s, _, _) -> s);
      kinds = count_kinds kind_of (Array.sub inputs seeds (total - seeds));
    },
    check_steps name (Array.map (fun (_, _, e) -> e) log) out )

let replay_ownership (r : Scenario.run) =
  let config = Cluster.config r.Scenario.cluster in
  let n = config.Config.nodes in
  let dir key = Config.dir_nodes_for config ~key in
  replay_core ~name:"ownership replay"
    ~create:(fun () ->
      Array.init n (fun self -> OwnC.create ~config:config.Config.ownership ~self ~nodes:n ()))
    ~handle:(fun core input -> snd (OwnC.handle ~dir core input))
    ~is_seed:(function OwnC.Api_seed _ -> true | _ -> false)
    ~kind_of:own_kind
    (Array.of_list
       (List.filter_map
          (function Scenario.Own e -> Some (e.node, e.input, e.effs) | Scenario.Com _ -> None)
          r.Scenario.log))

let replay_commit (r : Scenario.run) =
  let config = Cluster.config r.Scenario.cluster in
  let n = config.Config.nodes in
  replay_core ~name:"commit replay"
    ~create:(fun () ->
      Array.init n (fun self ->
          ComC.create ~clear_marks:config.Config.commit_clear_marks ~self ~nodes:n ()))
    ~handle:(fun core input -> snd (ComC.handle core input))
    ~is_seed:(fun _ -> false) ~kind_of:com_kind
    (Array.of_list
       (List.filter_map
          (function Scenario.Com e -> Some (e.node, e.input, e.effs) | Scenario.Own _ -> None)
          r.Scenario.log))

(* ---------- engine, fabric, transport --------------------------------------- *)

(* Every Send/Flush effect of both cores, in the order they were executed. *)
type net_op = { at : float; src : int; dst : int; size : int; payload : Msg.payload option }

let net_ops (r : Scenario.run) =
  let ack_size = 64 + Scenario.value_bytes r.Scenario.w in
  let ops = ref [] in
  let add at src dst size payload = ops := { at; src; dst; size; payload } :: !ops in
  List.iter
    (function
      | Scenario.Own { at; node; effs; _ } ->
        List.iter
          (function
            | OwnC.Send { dst; size; payload } -> add at node dst size (Some payload)
            | OwnC.Send_ack_local_data { dst; _ } -> add at node dst ack_size (Some Replay_ack)
            | OwnC.Flush -> add at node node 0 None
            | _ -> ())
          effs
      | Scenario.Com { at; node; effs; _ } ->
        List.iter
          (function
            | ComC.Send { dst; size; payload } -> add at node dst size (Some payload)
            | ComC.Flush -> add at node node 0 None
            | _ -> ())
          effs)
    r.Scenario.log;
  Array.of_list (List.rev !ops)

(* Fire [f op] at each op's recorded virtual time; only the next op is ever
   pending, so the heap holds what the replayed layers put there. *)
let replay_ops eng ops f =
  let n = Array.length ops in
  let i = ref 0 in
  let rec step () =
    f ops.(!i);
    incr i;
    if !i < n then ignore (Engine.schedule_at eng ~time:ops.(!i).at step)
  in
  if n > 0 then ignore (Engine.schedule_at eng ~time:ops.(0).at step);
  timed (fun () -> Engine.run eng)

type net_cost = {
  ns_per_event : float;
  ns_per_msg : float;  (** fabric, engine excluded *)
  ns_per_payload : float;  (** transport, engine and fabric excluded *)
  words_per_payload : float;
}

let replay_net (r : Scenario.run) =
  let config = Cluster.config r.Scenario.cluster in
  let fconfig = config.Config.fabric and nodes = config.Config.nodes in
  let ops = net_ops r in
  let sends = Array.fold_left (fun a op -> if Option.is_some op.payload then a + 1 else a) 0 ops in
  let fabric eng =
    let fab = Fabric.create eng ~nodes fconfig in
    for i = 0 to nodes - 1 do
      Fabric.set_handler fab i (fun ~src:_ _ -> ())
    done;
    fab
  in
  let noop () = () in
  (* engine: the op, plus the delivery event the fabric would schedule *)
  let eng_runs, eng_best =
    best_of (fun () ->
        let eng = Engine.create () in
        let s, w =
          replay_ops eng ops (fun op ->
              if Option.is_some op.payload then
                ignore
                  (Engine.schedule eng
                     ~after:(if op.src = op.dst then 0.05 else fconfig.Fabric.base_latency_us)
                     noop))
        in
        (s, w, Engine.events_dispatched eng))
  in
  let eng_events = match eng_runs with (_, _, e) :: _ -> e | [] -> 0 in
  let eng_s = eng_best (fun (s, _, _) -> s) and eng_w = eng_best (fun (_, w, _) -> w) in
  let ns_per_event = ns eng_s eng_events in
  let words_per_event = ratio eng_w (float_of_int eng_events) in
  (* fabric: the same events, the delivery now scheduled by [Fabric.send] *)
  let _, fab_best =
    best_of (fun () ->
        let eng = Engine.create () in
        let fab = fabric eng in
        replay_ops eng ops (fun op ->
            match op.payload with
            | Some p -> Fabric.send fab ~src:op.src ~dst:op.dst ~size:op.size p
            | None -> ()))
  in
  let ns_per_msg = Float.max 0.0 (ns (fab_best fst -. eng_s) sends) in
  let words_per_msg = Float.max 0.0 (ratio (fab_best snd -. eng_w) (float_of_int sends)) in
  (* transport: batching, acks and timers on top of a fabric of its own *)
  let tr_runs, tr_best =
    best_of (fun () ->
        let eng = Engine.create () in
        let fab = fabric eng in
        let tr = Transport.create ~config:config.Config.transport fab in
        for i = 0 to nodes - 1 do
          Transport.set_handler tr i (fun ~src:_ _ -> ())
        done;
        let s, w =
          replay_ops eng ops (fun op ->
              match op.payload with
              | Some p -> Transport.send tr ~src:op.src ~dst:op.dst ~size:op.size p
              | None -> Transport.flush tr op.src)
        in
        (s, w, Engine.events_dispatched eng, Fabric.messages_sent fab))
  in
  let events, msgs =
    match tr_runs with (_, _, e, m) :: _ -> (float_of_int e, float_of_int m) | [] -> (0.0, 0.0)
  in
  let own_s =
    tr_best (fun (s, _, _, _) -> s)
    -. (events *. ns_per_event *. 1e-9)
    -. (msgs *. ns_per_msg *. 1e-9)
  in
  let own_w =
    tr_best (fun (_, w, _, _) -> w) -. (events *. words_per_event) -. (msgs *. words_per_msg)
  in
  {
    ns_per_event;
    ns_per_msg;
    ns_per_payload = Float.max 0.0 (ns own_s sends);
    words_per_payload = Float.max 0.0 (ratio own_w (float_of_int sends));
  }

(* ---------- workload generator and store ------------------------------------ *)

let bump payload old =
  let counter = try Value.to_int old with Invalid_argument _ -> 0 in
  Value.padded [ counter + 1 ] ~size:payload

type app_cost = { specs : int; gen_s : float; store_s : float; store_words : float }

let replay_app (r : Scenario.run) =
  let w = r.Scenario.w in
  let homes = Array.of_list r.Scenario.homes in
  let n = Array.length homes in
  let gen = Scenario.gen_of w r.Scenario.wseed in
  let specs = Array.make n (Spec.read_txn []) in
  let gen_s, _ = timed (fun () -> Array.iteri (fun i home -> specs.(i) <- gen ~home) homes) in
  let gen_check =
    ( "generator replay",
      if Array.to_list specs = r.Scenario.specs then Ok ()
      else Error "regenerated specs differ from the run's" )
  in
  (* One table holding every key as owner; a committed write is revalidated
     at once, as the commit layer does when the write becomes durable. *)
  let table = Table.create ~node:0 in
  let value = Scenario.initial_value w in
  for key = 0 to Scenario.total_keys w - 1 do
    Table.install table (Obj.create ~key ~role:Types.Owner ~version:1 (Bytes.copy value))
  done;
  let txn = Txn.create_write table ~thread:0 in
  let committed = ref 0 in
  let apply (s : Spec.t) =
    Txn.reinit txn ~read_only:s.Spec.read_only ~thread:0;
    let opened =
      List.for_all (fun k -> Result.is_ok (Txn.open_read txn k)) s.Spec.reads
      && List.for_all
           (fun k ->
             match Txn.open_write txn k with
             | Ok v ->
               Txn.put txn k (bump s.Spec.payload v);
               true
             | Error _ -> false)
           s.Spec.writes
    in
    if opened then
      match Txn.local_commit txn with
      | Ok updates ->
        incr committed;
        List.iter
          (fun (u : Txn.update) ->
            let o = Table.get table u.Txn.key in
            o.Obj.t_state <- Types.T_valid;
            o.Obj.pending_rc <- 0)
          updates
      | Error _ -> ()
  in
  let store_s, store_words = timed (fun () -> Array.iter apply specs) in
  let store_check =
    ( "store replay",
      if !committed = n then Ok ()
      else Error (Printf.sprintf "%d of %d specs failed on a standalone table" (n - !committed) n) )
  in
  ({ specs = n; gen_s; store_s; store_words }, [ gen_check; store_check ])

(* ---------- the raw ledger -------------------------------------------------- *)

let hist c name =
  List.assoc_opt name (Metrics.histograms (Hub.metrics (Cluster.telemetry c)))

let hist_p c name p =
  match hist c name with Some h -> nan0 (Metrics.Histogram.percentile h p) | None -> 0.0

let sum_nodes c f =
  let acc = ref 0 in
  for i = 0 to Cluster.nodes c - 1 do
    acc := !acc + f (Cluster.node c i)
  done;
  !acc

(* Raw per-layer numbers of one traced run: everything except what needs
   the untraced runs (telemetry overhead, the residual and the shares).
   [kinds] breaks the replayed core inputs down by kind, for printing. *)
let measure (r : Scenario.run) =
  let c = r.Scenario.cluster in
  let committed = float_of_int (Scenario.committed_all r) in
  let per_txn x = ratio (float_of_int x) committed in
  Gc.compact ();
  let own, own_check = replay_ownership r in
  let com, com_check = replay_commit r in
  let net = replay_net r in
  let app, app_checks = replay_app r in
  let eng = Cluster.engine c and fab = Cluster.fabric c in
  let ts = Transport.stats (Cluster.transport c) in
  let own_agents f = sum_nodes c (fun n -> f (Node.ownership_agent n)) in
  let arb =
    let all =
      Array.concat
        (List.init (Cluster.nodes c) (fun i ->
             Stats.Samples.values (OwnA.latency_samples (Node.ownership_agent (Cluster.node c i)))))
    in
    Array.sort Float.compare all;
    fun p -> nan0 (Stats.percentile_of_sorted all p)
  in
  let rw_committed = Cluster.total_committed c in
  let aborted = Cluster.total_aborted c in
  let stop_ms = r.Scenario.stop_us /. 1000.0 in
  let det = Zeus_chaos.Report.detection_of_service (Cluster.membership c) in
  let chaos =
    match r.Scenario.chaos with
    | Some ch ->
      let rep = ch.Scenario.report in
      [
        ("chaos.baseline_mtps", rep.Zeus_chaos.Report.baseline_mtps);
        ("chaos.dip_mtps", rep.Zeus_chaos.Report.dip_mtps);
        ("chaos.violations", float_of_int (List.length rep.Zeus_chaos.Report.violations));
        ("chaos.recovery_us", Option.value ~default:0.0 rep.Zeus_chaos.Report.recovery_us);
      ]
    | None ->
      [ ("chaos.baseline_mtps", 0.0); ("chaos.dip_mtps", 0.0); ("chaos.violations", 0.0);
        ("chaos.recovery_us", 0.0) ]
  in
  let trace = Cluster.trace c in
  let events_per_txn = per_txn (Engine.events_dispatched eng) in
  let msgs_per_txn = per_txn (Fabric.messages_sent fab) in
  let payloads_per_txn = per_txn ts.Transport.payloads in
  let own_inputs = per_txn own.inputs and com_inputs = per_txn com.inputs in
  let own_ns = ns own.core_s own.inputs and com_ns = ns com.core_s com.inputs in
  let store_ns = ns app.store_s app.specs and gen_ns = ns app.gen_s app.specs in
  let specs_per_txn = per_txn app.specs in
  let requests = own_agents OwnA.requests_started in
  let metrics =
    [
      ("sim.events_per_txn", events_per_txn);
      ("sim.ns_per_event", net.ns_per_event);
      ("sim.ns_per_txn", net.ns_per_event *. events_per_txn);
      ("fabric.msgs_per_txn", msgs_per_txn);
      ("fabric.bytes_per_txn", per_txn (Fabric.bytes_sent fab));
      ("fabric.ns_per_msg", net.ns_per_msg);
      ("fabric.ns_per_txn", net.ns_per_msg *. msgs_per_txn);
      ("transport.frames_per_txn", per_txn ts.Transport.frames);
      ("transport.payloads_per_frame", nan0 ts.Transport.mean_occupancy);
      ("transport.standalone_acks_per_txn", per_txn ts.Transport.standalone_acks);
      ("transport.retransmits_per_ktxn", 1000.0 *. per_txn ts.Transport.retransmitted);
      ("transport.ns_per_payload", net.ns_per_payload);
      ("transport.words_per_payload", net.words_per_payload);
      ("transport.ns_per_txn", net.ns_per_payload *. payloads_per_txn);
      ("ownership.inputs_per_txn", own_inputs);
      ("ownership.effects_per_input", ratio (float_of_int own.effects) (float_of_int own.inputs));
      ("ownership.core_ns_per_input", own_ns);
      ("ownership.core_words_per_input", ratio own.core_words (float_of_int own.inputs));
      ("ownership.seed_ns_per_key", ns own.seed_s own.seeds);
      ("ownership.requests_per_ktxn", 1000.0 *. per_txn requests);
      ( "ownership.nack_frac",
        ratio (float_of_int (own_agents OwnA.requests_nacked)) (float_of_int requests) );
      ("ownership.timeouts", float_of_int (own_agents OwnA.requests_timed_out));
      ("ownership.replays", float_of_int (own_agents OwnA.replays_started));
      ("ownership.arb_p50_us", arb 50.0);
      ("ownership.arb_p99_us", arb 99.0);
      ("ownership.ns_per_txn", own_ns *. own_inputs);
      ("commit.inputs_per_txn", com_inputs);
      ("commit.effects_per_input", ratio (float_of_int com.effects) (float_of_int com.inputs));
      ("commit.core_ns_per_input", com_ns);
      ("commit.core_words_per_input", ratio com.core_words (float_of_int com.inputs));
      ( "commit.replays",
        float_of_int (sum_nodes c (fun n -> ComA.replays_started (Node.commit_agent n))) );
      ("commit.replicate_p50_us", hist_p c "txn.replication_us" 50.0);
      ("commit.replicate_p99_us", hist_p c "txn.replication_us" 99.0);
      ("commit.ns_per_txn", com_ns *. com_inputs);
      ("store.ns_per_txn", store_ns *. specs_per_txn);
      ("store.words_per_txn", ratio app.store_words committed);
      ("store.objects", float_of_int (sum_nodes c (fun n -> Table.size (Node.table n))));
      ("workload.gen_ns_per_txn", gen_ns *. specs_per_txn);
      ("node.ownership_p99_us", hist_p c "txn.ownership_us" 99.0);
      ("node.execute_p99_us", hist_p c "txn.execute_us" 99.0);
      ("node.local_commit_p99_us", hist_p c "txn.local_commit_us" 99.0);
      ("node.retries_per_ktxn", 1000.0 *. per_txn (sum_nodes c Node.retries));
      ( "node.ownership_txn_frac",
        ratio (float_of_int (sum_nodes c Node.txns_with_ownership)) (float_of_int rw_committed) );
      ( "node.abort_frac",
        ratio (float_of_int aborted) (float_of_int (rw_committed + aborted)) );
      ("membership.heartbeats_per_ms", float_of_int det.Zeus_chaos.Report.d_heartbeats /. stop_ms);
      ("membership.suspicions", float_of_int det.Zeus_chaos.Report.d_suspicions);
      ("membership.false_suspicions", float_of_int det.Zeus_chaos.Report.d_false_suspicions);
      ("membership.views_installed", float_of_int det.Zeus_chaos.Report.d_views_installed);
      ("telemetry.spans", float_of_int (Trace.count trace));
      ("telemetry.dropped_spans", float_of_int (Trace.dropped trace));
    ]
    @ chaos
  in
  let kinds =
    List.map (fun (k, n) -> ("ownership." ^ k, n)) own.kinds
    @ List.map (fun (k, n) -> ("commit." ^ k, n)) com.kinds
  in
  let spans_check =
    ( "no dropped spans",
      if Trace.dropped trace = 0 then Ok ()
      else Error (Printf.sprintf "%d spans dropped" (Trace.dropped trace)) )
  in
  (metrics, kinds, own_check :: com_check :: spans_check :: app_checks)
