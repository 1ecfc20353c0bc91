(** Placement policy: when to prefetch ownership, when to provision an
    extra reader replica, when to pin a thrashing key.

    The planner is stateful per key and applies two stabilizers:

    - {e hysteresis}: a prefetch fires only when the predicted accessor's
      recent rate beats the current holder's by {!hysteresis} (or the
      prediction is directional), the prediction clears the confidence bar,
      and [cooldown_us] has passed since the key's last ownership move —
      migration must be strictly cheaper than staying put, with margin;
    - {e anti-ping-pong}: a key observed to migrate {!pingpong_moves} times
      within {!pingpong_window_us} while bouncing between ≤ 2 nodes is
      declared thrashing and pinned for {!pin_us} at the node holding it at
      detection (executing that pin costs zero further migrations); further
      speculative movement is suppressed, and the caller is expected to
      re-route the key's transactions to the pin target (e.g.
      {!Zeus_lb.Balancer.reassign}) so the fighting stops at the source. *)

open Zeus_store

type config = {
  cooldown_us : float;  (** min quiet time after a move (default 200 µs) *)
}

val default_config : config

(** {1 Thresholds} *)

val hysteresis : float
(** Frequency-pattern rate advantage required: 2×. *)

val min_rate : float
(** Ignore keys colder than this. *)

val pingpong_window_us : float
(** Window over which a key's moves are counted. *)

val pingpong_moves : int
(** Moves within {!pingpong_window_us} that mean thrash. *)

val pin_us : float
(** How long a pin lasts. *)

val read_replicate_ratio : float
(** A node reading this share of a remote key's accesses (with no writes
    observed from it) gets a reader replica instead of ownership. *)

type decision =
  | Stay
  | Prefetch of { target : Types.node_id; directional : bool }
      (** move ownership to [target] ahead of its next access *)
  | Replicate of Types.node_id
      (** provision a reader replica at the node (read-mostly hot key) *)
  | Pin of Types.node_id
      (** thrashing: keep (or place) the key at the node and re-route *)

val pp_decision : Format.formatter -> decision -> unit

type t

val create : ?config:config -> unit -> t

val note_migration : t -> key:Types.key -> owner:Types.node_id -> now:float -> unit
(** Feed every observed ownership change (including this node's own wins). *)

val note_read_interest : t -> key:Types.key -> node:Types.node_id -> unit
(** A node accessed the key read-only (candidate for [Replicate]). *)

val pinned : t -> key:Types.key -> now:float -> Types.node_id option
(** The pin target while a pin is active, [None] otherwise. *)

val decide :
  t ->
  predictor:Predictor.t ->
  log:Access_log.t ->
  key:Types.key ->
  holder:Types.node_id ->
  now:float ->
  decision
(** Plan for [key] currently placed at [holder].  Returns [Stay] unless a
    move/replica/pin is justified under the thresholds above. *)

val migrations : t -> key:Types.key -> int
(** Total migrations observed for [key] (ping-pong tests). *)

val pins_set : t -> int
