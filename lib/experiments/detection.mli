(** Failure-detection sweep: heartbeat period × suspicion threshold.

    For each configuration the experiment runs a crash arm (detection
    latency of a real follower crash, checked against the configuration's
    analytical bound) and a noise arm (a loss/delay spike with no crash:
    false-suspicion pressure).  [BENCH_detection.json] records both. *)

type combo = {
  period_us : float;          (** heartbeat period swept *)
  min_timeout_us : float;     (** suspicion-timeout floor swept (cap = 2x) *)
  bound_us : float;           (** analytical crash-to-view bound *)
  detect_latency_us : float option;
      (** crash arm: crash until the survivors installed the excluding
          view; [None] if the view never changed *)
  within_bound : bool;        (** crash arm: latency <= bound *)
  recovered : bool;           (** crash arm: commits progressed post-view *)
  crash_suspicions : int;     (** crash arm: suspicions raised *)
  noise_suspicions : int;     (** noise arm: suspicions raised under spike *)
  noise_retractions : int;
  noise_false_suspicions : int; (** noise arm: live nodes actually evicted *)
  noise_evictions_averted : int;
  noise_views_installed : int;
}

type results = { quick : bool; seed : int64; combos : combo list }

val run : quick:bool -> results
(** Print one table per configuration and return the results. *)

val to_json : results -> Zeus_telemetry.Jsonv.v
(** The [BENCH_detection.json] document. *)
