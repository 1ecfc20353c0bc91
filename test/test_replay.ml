(* Record/replay determinism of the sans-I/O protocol cores.

   The agents' I/O taps record every (input, effect list) pair a live
   cluster feeds its cores; replaying the recorded inputs into a fresh
   core must reproduce every effect list and the final canonical
   fingerprint.  This is the property that makes post-mortem replay
   debugging sound — a core's behaviour is a pure function of its input
   sequence, with no hidden dependence on the engine, transport or wall
   clock it happened to be wired to. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn
module OwnA = Zeus_ownership.Agent
module OwnC = Zeus_ownership.Core
module ComA = Zeus_commit.Agent
module ComC = Zeus_commit.Core

let tc = Helpers.tc
let qtest = QCheck_alcotest.to_alcotest

(* ---------- recording from a live cluster --------------------------------- *)

(* Taps are attached before [populate] so the logs open with the seeding
   inputs a fresh core needs (Api_seed / Api_register). *)
let record_cluster () =
  let nodes = 3 in
  let c = Helpers.default_cluster ~nodes () in
  let own_logs = Array.init nodes (fun _ -> ref []) in
  let com_logs = Array.init nodes (fun _ -> ref []) in
  for i = 0 to nodes - 1 do
    OwnA.set_io_tap
      (Node.ownership_agent (Cluster.node c i))
      (fun input effs -> own_logs.(i) := (input, effs) :: !(own_logs.(i)));
    ComA.set_io_tap
      (Node.commit_agent (Cluster.node c i))
      (fun input effs -> com_logs.(i) := (input, effs) :: !(com_logs.(i)))
  done;
  for k = 0 to 5 do
    Cluster.populate c ~key:k ~owner:(k mod nodes) (Value.of_int 0)
  done;
  (* Local and remote writes: the remote ones force full ownership
     handovers, the multi-key ones multi-follower commit streams. *)
  List.iter
    (fun (node, keys) ->
      Helpers.expect_committed "recorded write"
        (Helpers.write_txn c node ~keys ~value:(Value.of_int 7)))
    [ (0, [ 0 ]); (1, [ 0 ]); (2, [ 1; 2 ]); (0, [ 3; 4 ]); (1, [ 5 ]); (2, [ 0; 5 ]) ];
  let finish l = List.rev !l in
  (c, Array.map finish own_logs, Array.map finish com_logs)

let check_steps name replayed recorded =
  List.iteri
    (fun step (effs', effs) ->
      if effs' <> effs then
        Alcotest.failf "%s: step %d diverged (%d effects replayed, %d recorded)" name
          step (List.length effs') (List.length effs))
    (List.combine replayed recorded)

let commit_agent_replay () =
  let c, _, com_logs = record_cluster () in
  let nodes = Cluster.nodes c in
  for i = 0 to nodes - 1 do
    let log = com_logs.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "n%d recorded commit traffic" i)
      true (log <> []);
    let fresh = ComC.create ~self:i ~nodes () in
    let replayed = List.map (fun (input, _) -> snd (ComC.handle fresh input)) log in
    check_steps (Printf.sprintf "commit n%d" i) replayed (List.map snd log);
    Alcotest.(check string)
      (Printf.sprintf "commit n%d final state" i)
      (ComA.core_fingerprint (Node.commit_agent (Cluster.node c i)))
      (ComC.fingerprint fresh)
  done

let ownership_agent_replay () =
  let c, own_logs, _ = record_cluster () in
  let nodes = Cluster.nodes c in
  let config = Cluster.config c in
  let dir key = Config.dir_nodes_for config ~key in
  for i = 0 to nodes - 1 do
    let log = own_logs.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "n%d recorded ownership traffic" i)
      true (log <> []);
    let fresh = OwnC.create ~config:config.Config.ownership ~self:i ~nodes () in
    let replayed = List.map (fun (input, _) -> snd (OwnC.handle ~dir fresh input)) log in
    check_steps (Printf.sprintf "ownership n%d" i) replayed (List.map snd log);
    Alcotest.(check string)
      (Printf.sprintf "ownership n%d final state" i)
      (OwnA.core_fingerprint (Node.ownership_agent (Cluster.node c i)))
      (OwnC.fingerprint fresh)
  done

(* ---------- qcheck: arbitrary commit schedules ---------------------------- *)

(* A closed-loop mini-interpreter (the Core_harness pattern): the
   coordinator pipelines a random schedule over object 0 (replicated on
   everyone) and object 1 (a partial stream), with the network drained at
   random points so stream shapes vary.  Every node's log must replay. *)

let nnodes = 3
let replicas_of k = if k = 0 then [ 0; 1; 2 ] else [ 0; 1 ]

let env = { ComC.epoch = 0; live = Array.make nnodes true; trace_on = false }

let run_schedule schedule =
  let cores = Array.init nnodes (fun i -> ComC.create ~self:i ~nodes:nnodes ()) in
  let logs = Array.init nnodes (fun _ -> ref []) in
  let net = Queue.create () in
  let feed i input =
    let _, effs = ComC.handle cores.(i) input in
    logs.(i) := (input, effs) :: !(logs.(i));
    List.iter
      (function
        | ComC.Send { dst; payload; _ } -> Queue.add (i, dst, payload) net
        | _ -> ())
      effs
  in
  let drain () =
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      feed dst (ComC.Deliver { src; payload; env })
    done
  in
  let vers = Array.make 2 0 in
  List.iter
    (fun (objs, drain_now) ->
      let updates =
        List.map
          (fun k ->
            vers.(k) <- vers.(k) + 1;
            { Txn.key = k; version = vers.(k); data = Value.empty; freed = false })
          objs
      in
      let replica_sets =
        List.map
          (fun (u : Txn.update) ->
            Zeus_store.Replicas.v ~owner:0 ~readers:(List.tl (replicas_of u.Txn.key)))
          updates
      in
      feed 0
        (ComC.Api_commit { thread = 0; updates; replica_sets; has_durable = false; env });
      if drain_now then drain ())
    schedule;
  drain ();
  (cores, Array.map (fun l -> List.rev !l) logs)

let schedule_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 6)
      (pair (oneofl [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]) bool))

let commit_schedule_replays =
  QCheck.Test.make ~name:"commit core: any recorded schedule replays" ~count:100
    schedule_gen (fun schedule ->
      let cores, logs = run_schedule schedule in
      Array.to_list cores
      |> List.mapi (fun i core -> (i, core, logs.(i)))
      |> List.for_all (fun (i, core, log) ->
             let fresh = ComC.create ~self:i ~nodes:nnodes () in
             List.for_all
               (fun (input, effs) -> snd (ComC.handle fresh input) = effs)
               log
             && ComC.fingerprint fresh = ComC.fingerprint core))

(* ---------- taps on and off run the same effects ------------------------- *)

module Engine = Zeus_sim.Engine
module Smallbank = Zeus_workload.Smallbank
module Spec = Zeus_workload.Spec
module Driver = Zeus_workload.Driver

(* Untapped, the agents walk each input's effects in place in the core's
   buffer; tapped, they also hand the tap a list built from that slice.
   Smallbank with 20 % remote writes exercises both protocols and the
   reentrant feeds (an [Unblock] or [Durable] continuation that feeds the
   agent mid-walk): both runs must execute the same effects in the same
   order, so they end with the same counts, events, time and core states. *)
type run = {
  committed : int;
  aborted : int;
  acquires : int;
  events : int;
  now : float;
  states : string list;  (* per node, a digest of both cores' fingerprints *)
}

let smallbank_run ~taps =
  let c = Helpers.default_cluster ~record_history:false () in
  let nodes = Cluster.nodes c in
  let agents f = List.init nodes (fun i -> f (Cluster.node c i)) in
  let tapped = ref 0 in
  let tap _ effs = tapped := !tapped + List.length effs in
  if taps then begin
    List.iter (fun a -> OwnA.set_io_tap a tap) (agents Node.ownership_agent);
    List.iter (fun a -> ComA.set_io_tap a tap) (agents Node.commit_agent)
  end;
  let w =
    Smallbank.create ~accounts_per_node:200 ~nodes ~remote_frac:0.2 (Zeus_sim.Rng.create 11L)
  in
  Smallbank.populate w c;
  let r =
    Driver.run c ~warmup_us:0.0 ~duration_us:3_000.0 ~issue:(Spec.issue (Smallbank.gen w)) ()
  in
  let engine = Cluster.engine c in
  let run =
    {
      committed = r.Driver.committed;
      aborted = r.Driver.aborted;
      acquires =
        List.fold_left ( + ) 0 (agents (fun n -> OwnA.requests_won (Node.ownership_agent n)));
      events = Engine.events_dispatched engine;
      now = Engine.now engine;
      states =
        agents (fun n ->
            Digest.to_hex
              (Digest.string
                 (OwnA.core_fingerprint (Node.ownership_agent n)
                 ^ ComA.core_fingerprint (Node.commit_agent n))));
    }
  in
  (run, !tapped)

let taps_on_and_off () =
  let off, _ = smallbank_run ~taps:false in
  let on, tapped = smallbank_run ~taps:true in
  Alcotest.(check bool) "the taps saw effects" true (tapped > 0);
  Alcotest.(check bool) "thousands committed" true (off.committed > 2_000);
  Alcotest.(check bool) "ownership moved" true (off.acquires > 500);
  Alcotest.(check int) "committed" off.committed on.committed;
  Alcotest.(check int) "aborted" off.aborted on.aborted;
  Alcotest.(check int) "ownership requests won" off.acquires on.acquires;
  Alcotest.(check int) "events" off.events on.events;
  Alcotest.(check (float 0.0)) "final virtual time" off.now on.now;
  Alcotest.(check (list string)) "core states" off.states on.states

let suite =
  [
    tc "commit cores replay from live-agent tap" commit_agent_replay;
    tc "ownership cores replay from live-agent tap" ownership_agent_replay;
    qtest commit_schedule_replays;
    tc "io taps on and off: the same Smallbank run" taps_on_and_off;
  ]
