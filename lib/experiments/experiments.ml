(** Registry of every reproduced table/figure and ablation (DESIGN.md §3). *)

module Jsonv = Zeus_telemetry.Jsonv

type kind =
  | Tables of (quick:bool -> unit)
  | Bench of string * (quick:bool -> Jsonv.v)

type t = { id : string; descr : string; kind : kind }

let tables id descr run = { id; descr; kind = Tables run }

let bench id descr file run to_json =
  { id; descr; kind = Bench (file, fun ~quick -> to_json (run ~quick)) }

let all =
  [
    tables "table2" "Table 2: benchmark summary" Table2.run;
    tables "verify" "exhaustive model checking of both protocols" Verify.run;
    tables "locality" "remote-transaction fractions (Boston, Venmo, TPC-C)" Locality.run;
    bench "predictive" "locality engine: reactive vs predictive placement"
      "BENCH_locality.json" Predictive.run Predictive.to_json;
    tables "fig7" "Handovers: ideal vs Zeus, 2.5%/5%" Fig7.run;
    tables "fig8" "Smallbank vs remote write transactions" (fun ~quick ->
        Exp.print_phase_breakdown "fig8: per-phase txn latency (last Zeus point)"
          (Fig8.run Fig8.smallbank ~quick));
    tables "fig9" "TATP vs remote write transactions" (fun ~quick ->
        ignore (Fig8.run Fig8.tatp ~quick));
    tables "fig10-12" "Voter migrations + ownership latency CDF" Voter_figs.run;
    tables "fig13-15" "legacy applications: gateway, SCTP, Nginx" Apps_figs.run;
    tables "tpcc" "executed TPC-C (extension beyond the paper)" Tpcc_fig.run;
    tables "ablations" "pipeline depth, replication degree, read-only, object size"
      Ablations.run;
    bench "transport"
      "batched vs unbatched reliable transport (messages/bytes/events per txn)"
      "BENCH_transport.json" Transport_ab.run Transport_ab.to_json;
    bench "faults"
      "Smallbank under follower/owner/directory crashes: dip + recovery time"
      "BENCH_faults.json" Faults.run Zeus_chaos.Report.to_json;
    bench "detection"
      "heartbeat period x suspicion threshold: detection latency vs false positives"
      "BENCH_detection.json" Detection.run Detection.to_json;
    bench "perf"
      "simulator wall-clock harness: events/sec, GC per event, -j sweep scaling"
      "BENCH_perf.json" Perf.run Perf.to_json;
  ]

let names () = List.map (fun e -> e.id) all
let find id = List.find_opt (fun e -> e.id = id) all
let bench_file e = match e.kind with Bench (file, _) -> Some file | Tables _ -> None

let run ~quick e =
  let out =
    match e.kind with
    | Tables run ->
      run ~quick;
      None
    | Bench (file, run) -> Some (file, run ~quick)
  in
  Zeus_telemetry.Tlog.flush_info ();
  out
