(* Command-line front end.

     zeus_cli list                 # show reproducible experiments
     zeus_cli run fig8 [--quick]   # regenerate one table/figure
     zeus_cli run faults detection # several; each BENCH_*.json they own
     zeus_cli run all [--quick]    # the whole evaluation
     zeus_cli micro                # bechamel microbenchmarks
     zeus_cli chaos --seed 7 --faults 4 --quick
                                   # Smallbank under a random fault schedule
     zeus_cli trace --workload smallbank --quick --out trace.json
                                   # per-transaction phase trace capture *)

open Cmdliner
module Tel = Zeus_telemetry

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small populations and short runs.")

(* ---- list ---- *)

module Experiments = Zeus_experiments.Experiments

let list_cmd =
  let run () =
    Printf.printf "%-10s %s\n" "id" "description";
    List.iter
      (fun (e : Experiments.t) -> Printf.printf "%-10s %s\n" e.id e.descr)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible tables and figures.")
    Term.(const run $ const ())

(* ---- run ---- *)

let write_json path v =
  let oc = open_out path in
  output_string oc (Tel.Jsonv.serialize v);
  output_char oc '\n';
  close_out oc;
  Tel.Tlog.infof "wrote %s" path

let run_cmd =
  let ids =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (see $(b,list)), or $(b,all) for every one.")
  in
  let run quick ids =
    let find id =
      match Experiments.find id with
      | Some e -> Either.Left [ e ]
      | None when id = "all" -> Either.Left Experiments.all
      | None -> Either.Right id
    in
    match List.partition_map find ids with
    | found, [] ->
      List.iter
        (fun e ->
          Option.iter
            (fun (path, json) -> write_json path json)
            (Experiments.run ~quick e))
        (List.concat found);
      `Ok ()
    | _, unknown ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment %s; known: all, %s"
            (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
            (String.concat ", " (Experiments.names ())) )
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Regenerate tables/figures of the paper's evaluation (or $(b,all)); \
          experiments with a machine-readable output write their \
          BENCH_*.json to the current directory.  Independent sweep points \
          run on up to four cores; the output does not depend on the core count.")
    Term.(ret (const run $ quick $ ids))

(* ---- micro ---- *)

let micro_cmd =
  Cmd.v
    (Cmd.info "micro"
       ~doc:"Bechamel microbenchmarks of the simulator and protocol code paths.")
    Term.(const Micro.run $ const ())

(* ---- chaos ---- *)

let chaos_cmd =
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Schedule seed (same seed, same fault timeline).")
  in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Cluster size.") in
  let faults =
    Arg.(value & opt int 3 & info [ "faults" ] ~doc:"Incident windows in the random schedule.")
  in
  let duration =
    Arg.(
      value
      & opt float 20_000.0
      & info [ "duration-us" ] ~doc:"Virtual time under chaos (after warm-up).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH" ~doc:"Write the machine-readable report (JSON).")
  in
  let detected =
    Arg.(
      value & flag
      & info [ "detected" ]
          ~doc:
            "No membership oracle: crashes must be detected end-to-end \
             (heartbeat silence, quorum suspicion, lease expiry) before the \
             view changes.")
  in
  let run quick seed nodes faults duration out detected =
    let module Chaos = Zeus_chaos in
    let module Cluster = Zeus_core.Cluster in
    let module Node = Zeus_core.Node in
    let module Engine = Zeus_sim.Engine in
    (* auto_trim off for the same reason as the faults experiment: the
       known trim wedge (ROADMAP.md, strict-serializability item, "Trims")
       would read as a chaos-found regression. *)
    let config =
      {
        Zeus_core.Config.default with
        Zeus_core.Config.nodes;
        auto_trim = false;
        membership_mode =
          (if detected then Zeus_membership.Service.Detected
           else Zeus_membership.Service.Oracle);
      }
    in
    let cluster = Cluster.create ~config () in
    let eng = Cluster.engine cluster in
    let rng = Engine.fork_rng eng in
    let w =
      Zeus_workload.Smallbank.create
        ~accounts_per_node:(if quick then 50 else 200)
        ~nodes ~remote_frac:0.1 rng
    in
    Zeus_workload.Smallbank.populate w cluster;
    let warmup_us = if quick then 1_000.0 else 3_000.0 in
    let duration = if quick then Float.min duration 10_000.0 else duration in
    let schedule =
      Chaos.Schedule.random ~seed ~nodes ~start_us:warmup_us ~duration_us:duration
        ~faults ()
    in
    Tel.Tlog.info_string (Chaos.Schedule.to_string schedule ^ "\n");
    let monitor = Chaos.Monitor.attach cluster in
    let nemesis = Chaos.Nemesis.attach ~monitor cluster schedule in
    let end_us = warmup_us +. duration +. 6_000.0 in
    let stop =
      Zeus_workload.Driver.closed_loop cluster ~nodes:(List.init nodes Fun.id) ~threads:4
        (fun node -> Zeus_workload.Smallbank.gen w ~home:(Node.id node))
    in
    Cluster.run cluster ~until_us:end_us;
    stop ();
    Chaos.Monitor.stop monitor;
    Cluster.run_quiesce cluster ~max_us:(end_us +. 100_000.0) ();
    List.iter
      (fun (at, f) ->
        Tel.Tlog.infof "%10.1f us  %s" at (Chaos.Schedule.fault_to_string f))
      (Chaos.Nemesis.applied nemesis);
    Tel.Tlog.infof "%d committed, %d aborted, %d monitor samples"
      (Cluster.total_committed cluster)
      (Cluster.total_aborted cluster)
      (Chaos.Monitor.samples monitor);
    if Chaos.Nemesis.no_oracle nemesis then begin
      let d = Zeus_membership.Service.det_stats (Cluster.membership cluster) in
      Tel.Tlog.infof
        "detection: %d heartbeats, %d suspicions (%d retracted), %d false, %d \
         fenced, %d averted, %d views"
        d.Zeus_membership.Service.heartbeats d.Zeus_membership.Service.suspicions
        d.Zeus_membership.Service.retractions
        d.Zeus_membership.Service.false_suspicions d.Zeus_membership.Service.fences
        d.Zeus_membership.Service.evictions_averted
        d.Zeus_membership.Service.views_installed
    end;
    let fault_at_us =
      match Chaos.Nemesis.applied nemesis with (at, _) :: _ -> at | [] -> warmup_us
    in
    let scenario =
      Chaos.Report.of_monitor
        ~name:(Printf.sprintf "random-%Ld" seed)
        ~fault_at_us
        ~detection:(Chaos.Report.detection_of_service (Cluster.membership cluster))
        ~committed:(Cluster.total_committed cluster)
        ~aborted:(Cluster.total_aborted cluster)
        monitor
    in
    Option.iter
      (fun path ->
        write_json path
          (Chaos.Report.to_json { Chaos.Report.quick; seed; scenarios = [ scenario ] }))
      out;
    match Chaos.Monitor.check_final monitor with
    | Ok () ->
      Tel.Tlog.infof "all invariants held under %d applied faults"
        (List.length (Chaos.Nemesis.applied nemesis));
      `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run Smallbank under a seeded random fault schedule with the online \
          invariant monitors armed; non-zero exit on any violation.")
    Term.(ret (const run $ quick $ seed $ nodes $ faults $ duration $ out $ detected))

(* ---- model ---- *)

let model_cmd =
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Exploration cap per scenario (default: each scenario's own cap).")
  in
  let show_trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"On a violation, print the whole offending interleaving.")
  in
  let run quick max_states show_trace =
    let module E = Zeus_model.Explorer in
    let module H = Zeus_model.Core_harness in
    let total = ref 0 in
    let failed = ref false in
    let width =
      List.fold_left
        (fun w (sc : H.scenario) -> max w (String.length sc.H.name))
        0 H.scenarios
    in
    let print_trace (stats : _ E.stats) =
      List.iteri (fun i pp -> Format.eprintf "--- step %d ---@.%t@." i pp) stats.E.trace
    in
    List.iter
      (fun (sc : H.scenario) ->
        let cap = Option.fold ~none:sc.H.cap ~some:(min sc.H.cap) max_states in
        let cap = if quick then min cap 30_000 else cap in
        let stats = sc.H.explore ~max_states:cap in
        total := !total + stats.E.explored;
        match (H.verdict sc ~max_states:cap stats, stats.E.violation) with
        | Ok (), None ->
          Tel.Tlog.infof "%-*s %7d states, %8d transitions, depth %3d, %5d quiescent"
            width sc.H.name stats.E.explored stats.E.transitions stats.E.max_depth
            stats.E.quiescent
        | Ok (), Some (_, msg) ->
          Tel.Tlog.infof "%-*s counterexample reproduced after %d states (expected): %s"
            width sc.H.name stats.E.explored msg;
          (* the pinned counterexample is the artifact model-smoke archives *)
          if show_trace then print_trace stats
        | Error msg, violation ->
          failed := true;
          Tel.Tlog.infof "%-*s FAILED after %d states (trace length %d): %s" width
            sc.H.name stats.E.explored (List.length stats.E.trace) msg;
          Option.iter
            (fun (bad, _) ->
              if show_trace then print_trace stats else Format.eprintf "%t@." bad)
            violation)
      H.scenarios;
    Tel.Tlog.infof "total: %d states explored across %d scenarios" !total
      (List.length H.scenarios);
    if !failed then `Error (false, "model checking found a violation")
    else if !total < 10_000 then
      `Error
        ( false,
          Printf.sprintf
            "suspiciously small state space (%d < 10000 states): the harness \
             lost its nondeterminism"
            !total )
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Bounded model checking of the real sans-I/O protocol cores \
          (interleavings, duplication, crash + replay/recovery) over the \
          scenario table; non-zero exit when a scenario misses its expected \
          outcome.")
    Term.(ret (const run $ quick $ max_states $ show_trace))

(* ---- trace ---- *)

(* Structural acceptance check on the recorded spans: every committed
   transaction must carry ownership -> execute -> replicate phase children
   with monotone, nested sim-time bounds. *)
let check_spans tr =
  let all = Tel.Trace.spans tr in
  (* One pass to index children by parent id: [Trace.children] re-sorts the
     whole list per call, far too slow for tens of thousands of roots. *)
  let by_parent = Hashtbl.create 4096 in
  List.iter
    (fun (sp : Tel.Trace.span) ->
      let p = sp.Tel.Trace.parent in
      if p >= 0 then
        Hashtbl.replace by_parent p
          (sp :: Option.value ~default:[] (Hashtbl.find_opt by_parent p)))
    all;
  let committed =
    List.filter
      (fun (sp : Tel.Trace.span) ->
        sp.Tel.Trace.parent < 0
        && sp.Tel.Trace.name = "txn"
        && List.assoc_opt "result" sp.Tel.Trace.args = Some "committed")
      all
  in
  if committed = [] then Error "no committed transactions were traced"
  else begin
    let bad = ref None in
    List.iter
      (fun (root : Tel.Trace.span) ->
        if !bad = None then begin
          let kids =
            Option.value ~default:[]
              (Hashtbl.find_opt by_parent root.Tel.Trace.id)
          in
          let find n =
            List.find_opt (fun (k : Tel.Trace.span) -> k.Tel.Trace.name = n) kids
          in
          match (find "ownership", find "execute", find "replicate") with
          | Some o, Some e, Some r ->
            let open Tel.Trace in
            let ordered =
              root.start <= o.start && o.start <= o.stop && o.stop <= e.start
              && e.start <= e.stop && e.stop <= r.start && r.start <= r.stop
              && r.stop <= root.stop
            in
            if not ordered then
              bad :=
                Some
                  (Printf.sprintf "txn span %d: phase bounds not monotone/nested"
                     root.id)
          | _ ->
            bad :=
              Some
                (Printf.sprintf "txn span %d: missing phase spans" root.Tel.Trace.id)
        end)
      committed;
    match !bad with None -> Ok (List.length committed) | Some e -> Error e
  end

(* The written file must be loadable Chrome trace JSON. *)
let check_json file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Tel.Jsonv.parse s with
  | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" file e)
  | Ok v -> (
    match Option.bind (Tel.Jsonv.member "traceEvents" v) Tel.Jsonv.to_list with
    | None -> Error (Printf.sprintf "%s: no traceEvents array" file)
    | Some events -> Ok (List.length events))

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("smallbank", `Smallbank); ("tatp", `Tatp) ]) `Smallbank
      & info [ "workload" ] ~docv:"WORKLOAD" ~doc:"smallbank or tatp.")
  in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Cluster size.") in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "out" ] ~docv:"PATH" ~doc:"Chrome trace_event output file.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"PATH" ~doc:"Also write one JSON object per span.")
  in
  let run quick workload nodes out jsonl =
    let config = { Zeus_core.Config.default with Zeus_core.Config.nodes } in
    let cluster = Zeus_core.Cluster.create ~config ~tracing:true () in
    let rng = Zeus_sim.Engine.fork_rng (Zeus_core.Cluster.engine cluster) in
    let per_node = if quick then 2_000 else 10_000 in
    let warmup_us = if quick then 500.0 else 2_000.0 in
    let duration_us = if quick then 3_000.0 else 15_000.0 in
    let gen, name =
      match workload with
      | `Smallbank ->
        let w =
          Zeus_workload.Smallbank.create ~accounts_per_node:per_node ~nodes
            ~remote_frac:0.0 rng
        in
        Zeus_workload.Smallbank.populate w cluster;
        (Zeus_workload.Smallbank.gen w, "smallbank")
      | `Tatp ->
        let w =
          Zeus_workload.Tatp.create ~subscribers_per_node:per_node ~nodes
            ~remote_frac:0.0 rng
        in
        Zeus_workload.Tatp.populate w cluster;
        (Zeus_workload.Tatp.gen w, "tatp")
    in
    let r =
      Zeus_workload.Driver.run cluster ~warmup_us ~duration_us
        ~issue:(Zeus_workload.Spec.issue gen) ()
    in
    let tr = Zeus_core.Cluster.trace cluster in
    Tel.Trace.write_chrome tr out;
    Option.iter (Tel.Trace.write_jsonl tr) jsonl;
    match (check_spans tr, check_json out) with
    | Ok txns, Ok events ->
      Tel.Tlog.infof "%s on %d nodes: %d committed, %d spans (%d dropped)" name
        nodes r.Zeus_workload.Driver.committed (Tel.Trace.count tr)
        (Tel.Trace.dropped tr);
      Tel.Tlog.infof
        "%s: %d trace events, all committed txns have \
         ownership/execute/replicate phases (%d checked)"
        out events txns;
      Option.iter (Tel.Tlog.infof "%s: span-per-line JSONL written") jsonl;
      Zeus_experiments.Exp.print_phase_breakdown "per-phase txn latency" cluster;
      `Ok ()
    | Error e, _ | _, Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced workload and export per-transaction phase spans as \
          Chrome trace_event JSON (chrome://tracing, Perfetto).")
    Term.(ret (const run $ quick $ workload $ nodes $ out $ jsonl))

let () =
  (* Large minor heap: simulation garbage (events, messages, closures) is
     short-lived; the default 256 kw nursery promotes much of it only to
     die in the next major cycle.  See DESIGN.md §12. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024; Gc.space_overhead = 400 };
  Tel.Tlog.set_level Tel.Tlog.Info;
  let doc = "Zeus: locality-aware distributed transactions (EuroSys '21 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "zeus_cli" ~doc)
          [ list_cmd; run_cmd; micro_cmd; chaos_cmd; model_cmd; trace_cmd ]))
