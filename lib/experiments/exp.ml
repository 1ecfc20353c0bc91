module Tlog = Zeus_telemetry.Tlog
module Metrics = Zeus_telemetry.Metrics
module Hub = Zeus_telemetry.Hub

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  x_axis : string;
  y_axis : string;
  series : series list;
  paper : string list;
  notes : string list;
}

let hrule width = String.make width '-'

(* Tables render into a buffer and go out in one [Tlog.info_string] block:
   the severity gate is the entry point's, not each printf's. *)
let print_figure f =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "\n== %s: %s ==\n" f.id f.title;
  List.iter
    (fun s ->
      pf "  %s  [%s -> %s]\n" s.label f.x_axis f.y_axis;
      List.iter (fun (x, y) -> pf "    %10.3f  %10.3f\n" x y) s.points)
    f.series;
  if f.paper <> [] then begin
    pf "  paper reports:\n";
    List.iter (fun p -> pf "    - %s\n" p) f.paper
  end;
  List.iter (fun n -> pf "  note: %s\n" n) f.notes;
  pf "  %s\n" (hrule 60);
  Tlog.info_string (Buffer.contents buf);
  Tlog.flush_info ()

let print_kv title kvs =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "\n== %s ==\n" title;
  List.iter (fun (k, v) -> pf "  %-42s %s\n" k v) kvs;
  Tlog.info_string (Buffer.contents buf);
  Tlog.flush_info ()

(* The txn.* phase histograms accumulate on the cluster hub regardless of
   tracing; any experiment that ran transactions can print the breakdown. *)
let print_phase_breakdown title cluster =
  let hub = Zeus_core.Cluster.telemetry cluster in
  (* Present in pipeline order (registration order is arbitrary). *)
  let rank n =
    match n with
    | "txn.ownership_us" -> 0
    | "txn.execute_us" -> 1
    | "txn.local_commit_us" -> 2
    | "txn.replication_us" -> 3
    | "txn.e2e_us" -> 4
    | _ -> 5
  in
  let phases =
    List.filter
      (fun (n, h) ->
        String.length n > 4 && String.sub n 0 4 = "txn."
        && Metrics.Histogram.count h > 0)
      (Metrics.histograms (Hub.metrics hub))
    |> List.sort (fun (a, _) (b, _) -> compare (rank a, a) (rank b, b))
  in
  if phases <> [] then begin
    let buf = Buffer.create 512 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "\n== %s ==\n" title;
    pf "  %-16s %9s %10s %10s %10s %10s\n" "phase" "count" "mean us" "p50 us"
      "p99 us" "max us";
    List.iter
      (fun (n, h) ->
        let phase = String.sub n 4 (String.length n - 4) in
        pf "  %-16s %9d %10.2f %10.2f %10.2f %10.2f\n" phase
          (Metrics.Histogram.count h) (Metrics.Histogram.mean h)
          (Metrics.Histogram.percentile h 50.0)
          (Metrics.Histogram.percentile h 99.0)
          (Metrics.Histogram.max h))
      phases;
    Tlog.info_string (Buffer.contents buf);
    Tlog.flush_info ()
  end

let scale_note ~quick =
  if quick then "quick mode: tiny population, short runs (smoke only)"
  else
    "scaled deployment: populations ~1/50 of the paper's, virtual-time runs \
     of tens of ms instead of seconds; shapes and ratios are comparable, \
     absolute counts are not"

type scale = { duration_us : float; warmup_us : float; objects_per_node : int }

let scale_of ~quick =
  if quick then { duration_us = 3_000.0; warmup_us = 500.0; objects_per_node = 2_000 }
  else { duration_us = 15_000.0; warmup_us = 2_000.0; objects_per_node = 10_000 }

let txns_with_ownership cluster =
  let n = ref 0 in
  for i = 0 to Zeus_core.Cluster.nodes cluster - 1 do
    n := !n + Zeus_core.Node.txns_with_ownership (Zeus_core.Cluster.node cluster i)
  done;
  !n

let run_zeus cluster ~quick ~issue =
  let s = scale_of ~quick in
  let engine = Zeus_core.Cluster.engine cluster in
  let at_start = ref (0, 0) and at_stop = ref (0, 0) in
  (* Scheduled before the driver's first event, each snapshot runs ahead
     of any completion at the same instant, matching the driver's
     [start <= t < stop] window. *)
  let snapshot_at after cell =
    ignore
      (Zeus_sim.Engine.schedule engine ~after (fun () ->
           cell := (txns_with_ownership cluster, Zeus_core.Cluster.total_committed cluster)))
  in
  snapshot_at s.warmup_us at_start;
  snapshot_at (s.warmup_us +. s.duration_us) at_stop;
  let r =
    Zeus_workload.Driver.run cluster ~warmup_us:s.warmup_us ~duration_us:s.duration_us
      ~issue ()
  in
  let (own0, writes0), (own1, writes1) = (!at_start, !at_stop) in
  (r, 100.0 *. float_of_int (own1 - own0) /. float_of_int (max 1 (writes1 - writes0)))
