(** Per-node unreliable failure detector: heartbeat inter-arrival tracking
    with an adaptive suspicion timeout (a windowed phi-accrual variant).

    Each node periodically sends small {!Heartbeat} frames to every peer of
    its current view, and {e every} received payload — heartbeat or
    protocol traffic riding the batched per-peer flows — counts as an
    arrival, so under load the data stream itself carries the liveness
    signal and explicit heartbeats only matter for idle links.

    The estimator keeps, per peer, an EWMA of the inter-arrival mean and
    mean absolute deviation (Jacobson gains: 1/8 and 1/4).  A peer is
    suspected once the current silence exceeds

    {v clamp(mean + phi_factor * dev, min_timeout_us, max_timeout_us) v}

    with the constant [phi_factor = 4].  The floor keeps chatty data flows
    (µs-scale inter-arrivals) from turning one scheduling hiccup into a
    suspicion; the cap bounds detection latency and is the term the
    deterministic recovery-bound tests assert against.  Until
    [min_samples = 3] arrivals have been observed for a peer (fresh start,
    rejoin grace) the cap is used verbatim.

    This module is a pure state machine — no timers, no transport; the
    {!Service} drives it from heartbeat ticks and message receipt. *)

type Zeus_net.Msg.payload +=
  | Heartbeat of { epoch : int }
        (** Sent unreliably (a lost heartbeat {e is} the signal; the next
            period resends).  [epoch] is the sender's installed view epoch,
            carried for tracing and epoch-skew diagnosis. *)

type config = {
  period_us : float;       (** heartbeat period *)
  min_timeout_us : float;  (** suspicion floor (also the false-positive guard) *)
  max_timeout_us : float;  (** suspicion cap — bounds detection latency *)
}

val default_config : config
(** 200 µs period, 1.2 ms floor, 2.4 ms cap. *)

type t

val create : config -> node:Zeus_net.Msg.node_id -> nodes:int -> now:float -> t
(** Fresh detector for [node]; every peer starts in the grace state with
    [last_arrival = now]. *)

val note_arrival : t -> src:Zeus_net.Msg.node_id -> now:float -> unit
(** Record a payload received from [src] (self- and out-of-range sources
    are ignored). *)

val timeout_us : t -> peer:Zeus_net.Msg.node_id -> float
(** The suspicion timeout currently in force for [peer]. *)

val silence_us : t -> peer:Zeus_net.Msg.node_id -> now:float -> float
(** Time since the last arrival from [peer]. *)

val suspects : t -> peer:Zeus_net.Msg.node_id -> now:float -> bool
(** Whether the silence from [peer] exceeds its timeout (never suspects
    self). *)

val reset_peer : t -> peer:Zeus_net.Msg.node_id -> now:float -> unit
(** Forget the peer's history and restart its grace window (peer rejoined
    as a fresh incarnation). *)

val reset_all : t -> now:float -> unit
(** Forget everything (this node itself rejoined). *)
