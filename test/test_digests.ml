(* Behaviour pin: six small runs at seeds 42 and 7, each reduced to its
   [Cluster.digest] (transaction counts, events, final clock, messages,
   bytes) and compared with the checked-in [digests.expected].  A change
   meant to keep behaviour bit-identical must leave every line as it is;
   one meant to move it replaces the lines this test prints and says why
   in CHANGES.md.

   The cases cover the paths the repository benchmark runs: Smallbank
   with local and with remote writes, TATP, a follower crash and restart
   under detected membership, cellular handovers, and a random chaos
   schedule. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Engine = Zeus_sim.Engine
module Service = Zeus_membership.Service
module W = Zeus_workload
module Chaos = Zeus_chaos

let seeds = [ 42L; 7L ]
let expected_file = "digests.expected"

let cluster ?(nodes = 3) ?(detected = false) ~seed () =
  let config = { Config.default with Config.nodes; seed; record_history = false } in
  let config =
    if detected then
      (* As the benchmark's crash workload: a 2-replica directory and no
         auto-trim on 4 nodes. *)
      { config with Config.dir_replicas = 2; auto_trim = false; membership_mode = Service.Detected }
    else config
  in
  Cluster.create ~config ()

let drive c ~duration_us ~issue =
  ignore (W.Driver.run c ~warmup_us:0.0 ~duration_us ~issue ())

let smallbank ~remote_frac ~seed =
  let c = cluster ~seed () in
  let w =
    W.Smallbank.create ~accounts_per_node:500 ~nodes:3 ~remote_frac
      (Engine.fork_rng (Cluster.engine c))
  in
  W.Smallbank.populate w c;
  drive c ~duration_us:1_500.0 ~issue:(W.Spec.issue (W.Smallbank.gen w));
  c

let tatp ~seed =
  let c = cluster ~seed () in
  let w =
    W.Tatp.create ~subscribers_per_node:300 ~nodes:3 ~remote_frac:0.1
      (Engine.fork_rng (Cluster.engine c))
  in
  W.Tatp.populate w c;
  drive c ~duration_us:1_500.0 ~issue:(W.Spec.issue (W.Tatp.gen w));
  c

(* Node 3 crashes at 2 ms and restarts 3 ms later; nothing announces
   either, so the detector must. *)
let detected_crash ~seed =
  let c = cluster ~nodes:4 ~detected:true ~seed () in
  let w =
    W.Smallbank.create ~accounts_per_node:200 ~nodes:3 ~remote_frac:0.2
      (Engine.fork_rng (Cluster.engine c))
  in
  W.Smallbank.populate w c;
  let schedule =
    Chaos.Schedule.v ~name:"crash" ~seed
      (Chaos.Schedule.crash_restart ~node:3 ~at_us:2_000.0 ~down_us:3_000.0)
  in
  ignore (Chaos.Nemesis.attach c schedule);
  ignore
    (W.Driver.run c ~nodes:[ 0; 1; 2 ] ~warmup_us:0.0 ~duration_us:8_000.0
       ~issue:(W.Spec.issue (W.Smallbank.gen w))
       ());
  c

let handover ~seed =
  let c = cluster ~seed () in
  let w =
    W.Handover.create ~users_per_node:200 ~stations_per_node:20 ~nodes:3 ~handover_frac:0.2
      ~remote_handover_frac:0.5
      (Engine.fork_rng (Cluster.engine c))
  in
  W.Handover.populate w c;
  drive c ~duration_us:1_500.0 ~issue:(W.Handover.issue w);
  c

(* Three random incidents over 4 ms of Smallbank traffic. *)
let chaos ~seed =
  let c = cluster ~seed () in
  let w =
    W.Smallbank.create ~accounts_per_node:200 ~nodes:3 ~remote_frac:0.2
      (Engine.fork_rng (Cluster.engine c))
  in
  W.Smallbank.populate w c;
  let schedule =
    Chaos.Schedule.random ~seed ~nodes:3 ~start_us:500.0 ~duration_us:4_000.0 ()
  in
  ignore (Chaos.Nemesis.attach c schedule);
  drive c ~duration_us:6_000.0 ~issue:(W.Spec.issue (W.Smallbank.gen w));
  c

let cases =
  [
    ("smallbank-local", smallbank ~remote_frac:0.0);
    ("smallbank-remote", smallbank ~remote_frac:0.3);
    ("tatp", tatp);
    ("detected-crash", detected_crash);
    ("handover", handover);
    ("chaos", chaos);
  ]

let line name seed digest = Printf.sprintf "%s seed=%Ld %s" name seed digest

let current () =
  List.concat_map
    (fun (name, run) ->
      List.map (fun seed -> line name seed (Cluster.digest (run ~seed))) seeds)
    cases

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let digests_match_expected () =
  let expected = read_lines expected_file and got = current () in
  (* A line's case and seed. *)
  let key l =
    match String.split_on_char ' ' l with name :: seed :: _ -> name ^ " " ^ seed | _ -> l
  in
  let diffs =
    List.filter_map
      (fun g ->
        match List.find_opt (fun e -> key e = key g) expected with
        | Some e when e = g -> None
        | Some e -> Some (Printf.sprintf "- %s\n+ %s" e g)
        | None -> Some (Printf.sprintf "- (no line)\n+ %s" g))
      got
  in
  let stale = List.filter (fun e -> not (List.exists (fun g -> key g = key e) got)) expected in
  let diffs = diffs @ List.map (fun e -> Printf.sprintf "- %s\n+ (no case)" e) stale in
  if diffs <> [] then
    Alcotest.failf
      "behaviour moved; old (-) and new (+) lines of test/%s:\n%s\n\
       A change meant to move behaviour replaces the file with:\n%s"
      expected_file (String.concat "\n" diffs) (String.concat "\n" got)

let suite = [ Helpers.tc "digests: six small runs match test/digests.expected" digests_match_expected ]
