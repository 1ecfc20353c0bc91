(* Every metric the benchmark reports, with its unit.  BENCHMARK.json names
   the same metrics; the smoke test fails when the two disagree. *)

type better = Lower | Higher

type e2e = {
  name : string;
  unit_ : string;
  better : better;
  deterministic : bool;  (** a pure function of the seed: repeats agree exactly *)
  wall_clock : bool;
      (** timed on the wall clock: other tenants of a shared machine only
          ever slow a repeat down *)
  best_of : bool;  (** one run reports its best repeat, not the median *)
}

let e2e =
  let m ?(deterministic = false) ?(wall_clock = false) ?(best_of = false) name unit_ better =
    { name; unit_; better; deterministic; wall_clock; best_of }
  in
  [
    m "setup_s" "s" Lower ~wall_clock:true;
    m "txn_per_s" "txn/s" Higher ~wall_clock:true ~best_of:true;
    m "alloc_words_per_txn" "words" Lower ~deterministic:true;
    m "peak_rss_mb" "MB" Lower;
    m "vt_mtps" "Mtps" Higher ~deterministic:true;
    m "vt_mean_us" "us" Lower ~deterministic:true;
    m "vt_tail99_us" "us" Lower ~deterministic:true;
  ]

(* The value of a metric for one run of the benchmark, from its repeats. *)
let run_value m xs =
  if not m.best_of then Util.median xs
  else
    match m.better with
    | Lower -> List.fold_left Float.min Float.infinity xs
    | Higher -> List.fold_left Float.max Float.neg_infinity xs

(* The spread [compare] weighs against the bound.  A wall-clock metric's
   noise only ever slows a repeat down, so its spread is taken over the
   better half of the repeats.  That half holds the median: if slow repeats
   reach the median, the spread shows it. *)
let repeat_spread m xs =
  if not m.wall_clock then Util.spread xs
  else begin
    let sign = match m.better with Lower -> 1.0 | Higher -> -1.0 in
    let ranked = List.sort (fun a b -> Float.compare (sign *. a) (sign *. b)) xs in
    Util.spread (List.filteri (fun i _ -> i < (List.length xs + 1) / 2) ranked)
  end

(* Per-layer metrics, [<layer>.<metric>], layers named after the modules. *)
let per_layer =
  [
    ("sim.events_per_txn", "count");
    ("sim.events_per_s", "1/s");
    ("sim.ns_per_event", "ns");
    ("sim.ns_per_txn", "ns");
    ("sim.share", "ratio");
    ("fabric.msgs_per_txn", "count");
    ("fabric.bytes_per_txn", "B");
    ("fabric.ns_per_msg", "ns");
    ("fabric.ns_per_txn", "ns");
    ("fabric.share", "ratio");
    ("transport.frames_per_txn", "count");
    ("transport.payloads_per_frame", "count");
    ("transport.standalone_acks_per_txn", "count");
    ("transport.retransmits_per_ktxn", "count");
    ("transport.ns_per_payload", "ns");
    ("transport.words_per_payload", "words");
    ("transport.ns_per_txn", "ns");
    ("transport.share", "ratio");
    ("ownership.inputs_per_txn", "count");
    ("ownership.effects_per_input", "count");
    ("ownership.core_ns_per_input", "ns");
    ("ownership.core_words_per_input", "words");
    ("ownership.seed_ns_per_key", "ns");
    ("ownership.requests_per_ktxn", "count");
    ("ownership.nack_frac", "ratio");
    ("ownership.timeouts", "count");
    ("ownership.replays", "count");
    ("ownership.arb_p50_us", "us");
    ("ownership.arb_p99_us", "us");
    ("ownership.ns_per_txn", "ns");
    ("ownership.share", "ratio");
    ("commit.inputs_per_txn", "count");
    ("commit.effects_per_input", "count");
    ("commit.core_ns_per_input", "ns");
    ("commit.core_words_per_input", "words");
    ("commit.replays", "count");
    ("commit.replicate_p50_us", "us");
    ("commit.replicate_p99_us", "us");
    ("commit.ns_per_txn", "ns");
    ("commit.share", "ratio");
    ("store.ns_per_txn", "ns");
    ("store.words_per_txn", "words");
    ("store.objects", "count");
    ("store.share", "ratio");
    ("workload.gen_ns_per_txn", "ns");
    ("workload.share", "ratio");
    ("node.ownership_p99_us", "us");
    ("node.execute_p99_us", "us");
    ("node.local_commit_p99_us", "us");
    ("node.retries_per_ktxn", "count");
    ("node.ownership_txn_frac", "ratio");
    ("node.abort_frac", "ratio");
    ("node.wall_ns_per_txn", "ns");
    ("node.residual_ns_per_txn", "ns");
    ("node.share", "ratio");
    ("membership.heartbeats_per_ms", "1/ms");
    ("membership.suspicions", "count");
    ("membership.false_suspicions", "count");
    ("membership.views_installed", "count");
    ("chaos.baseline_mtps", "Mtps");
    ("chaos.dip_mtps", "Mtps");
    ("chaos.violations", "count");
    ("chaos.recovery_us", "us");
    ("telemetry.trace_overhead_frac", "ratio");
    ("telemetry.spans", "count");
    ("telemetry.dropped_spans", "count");
    ("telemetry.ns_per_txn", "ns");
  ]

(* The layers of the wall-clock ledger, in print order; [node] is the
   residual, so the shares add up to the untraced wall time per txn.
   Tracing's own cost is reported beside the ledger, not in it. *)
let ledger_layers =
  [ "sim"; "fabric"; "transport"; "ownership"; "commit"; "store"; "workload"; "node" ]

(* The per-layer metric holding a ledger layer's wall time per txn. *)
let cost_key = function
  | "workload" -> "workload.gen_ns_per_txn"
  | "node" -> "node.residual_ns_per_txn"
  | layer -> layer ^ ".ns_per_txn"

