(** Machine-readable chaos results ([BENCH_faults.json]).

    One {!scenario} per injected fault of the [faults] experiment:
    identity (name, fault/restart instants), throughput (pre-fault
    baseline, worst post-fault window, the full goodput timeline), the
    recovery time extracted by {!Monitor.recovery_us}, commit/abort
    totals, and the monitor verdict.  {!to_json} builds the
    {!Zeus_telemetry.Jsonv} value; the caller prints and writes it. *)

(** Failure-detection observability for a scenario: which membership
    regime it ran under ([d_mode]: ["oracle"] or ["detected"]) and the
    detection counters at the end of the run — so [BENCH_faults.json]
    distinguishes a recovery produced by an oracle-announced crash from
    one the cluster detected itself (and quantifies false suspicions). *)
type detection = {
  d_mode : string;
  d_heartbeats : int;
  d_suspicions : int;
  d_retractions : int;
  d_false_suspicions : int;
  d_fences : int;
  d_evictions_averted : int;
  d_views_installed : int;
}

val detection_of_service : Zeus_membership.Service.t -> detection
(** Snapshot a membership service's {!Zeus_membership.Service.det_stats}. *)

type scenario = {
  name : string;
  fault_at_us : float;
  restart_at_us : float option;
  baseline_mtps : float;     (** mean goodput over the pre-fault windows *)
  dip_mtps : float;          (** worst window between fault and recovery *)
  recovery_us : float option;
  committed : int;
  aborted : int;
  monitors_ok : bool;
  violations : string list;
  detection : detection option;  (** [None] when the run predates tracking *)
  timeline : (float * float) list;  (** [(window_start_us, mtps)] *)
}

type t = {
  quick : bool;
  seed : int64;
  scenarios : scenario list;
}

val of_monitor :
  name:string ->
  fault_at_us:float ->
  ?restart_at_us:float ->
  ?detection:detection ->
  committed:int ->
  aborted:int ->
  Monitor.t ->
  scenario
(** Derive a scenario from a stopped monitor: baseline, dip, recovery and
    verdict all come from the monitor's timeline and final check. *)

val to_json : t -> Zeus_telemetry.Jsonv.v
