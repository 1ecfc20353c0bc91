(** Next-accessor prediction.

    Two patterns, tried in this order per key:

    - {e directional} (mobility-aware): the predictor watches each key's
      owner trajectory.  A key whose last ownership moves step by a constant
      node delta (a commuter crossing tiles: shard [h] → [h+1] → [h+2]) is
      predicted to continue in that direction (the prediction names the
      next node, not when the key will move);
    - {e frequency}: otherwise the hottest accessor in the
      {!Access_log} is the predicted next accessor, with confidence equal to
      its share of the key's total rate.

    Predictions below 0.55 confidence are suppressed, and each key
    remembers its last 4 owner moves.

    The predictor is a deterministic function of the fed event sequence —
    it draws no randomness, so two replicas fed the same events agree. *)

open Zeus_store

type prediction = {
  target : Types.node_id;
  confidence : float;       (** in [0, 1] *)
  directional : bool;       (** [true] when the trajectory pattern fired *)
}

type t

val create : nodes:int -> t

val note_owner : t -> key:Types.key -> owner:Types.node_id -> unit
(** Feed an observed ownership change (from the ownership agent). *)

val predict : t -> log:Access_log.t -> key:Types.key -> now:float -> prediction option
(** Predicted next accessor of [key], excluding nobody: callers compare
    [target] against the current owner themselves. *)

val forget : t -> key:Types.key -> unit
val tracked : t -> int
