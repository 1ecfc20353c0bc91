(** Transport ablation: batched vs unbatched reliable messaging on
    Smallbank and the handover workload (messages, bytes, and simulator
    events per committed transaction). *)

type arm = {
  committed : int;
  mtps : float;
  abort_rate : float;
  p50 : float;
  p99 : float;
  messages : int;  (** fabric frames in the measurement window *)
  bytes : int;
  events : int;  (** simulator events dispatched in the window *)
  retransmissions : int;
  frames : int;  (** transport data frames (whole run) *)
  payloads : int;  (** protocol payloads carried (whole run) *)
  mean_occupancy : float;  (** payloads per data frame *)
  piggybacked_acks : int;
  standalone_acks : int;
}

type results = {
  quick : bool;
  smallbank : arm * arm;  (** (unbatched, batched) *)
  handover : arm * arm;
}

val run : quick:bool -> results
(** Print the two comparison tables and the per-phase latency table, and
    return the results. *)

val to_json : results -> Zeus_telemetry.Jsonv.v
(** The [BENCH_transport.json] document. *)
