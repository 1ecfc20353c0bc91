(** Reactive vs predictive ownership placement: the locality engine driven
    end-to-end on a trajectory (handover) workload, a two-node hot-key
    contention workload, and a uniform no-regression check. *)

type arm = {
  committed : int;
  remote : int;   (** committed write txns that needed an ownership request *)
  p50 : float;
  p99 : float;
  hits : int;
  misses : int;
  hints : int;
  pins : int;
  reassigns : int;
}

type results = {
  quick : bool;
  trajectory : arm * arm;  (** (reactive, predictive) *)
  skew : arm * arm;
  uniform : arm * arm;
}

val run : quick:bool -> results
(** Print the three comparison tables and the per-phase latency table,
    and return the results. *)

val to_json : results -> Zeus_telemetry.Jsonv.v
(** The [BENCH_locality.json] document. *)
