(** Per-key, per-node decayed access counters (the locality engine's input).

    Each tracked key carries one exponentially-weighted rate per node,
    decayed with a fixed half-life so that old accesses fade and the
    counters approximate "recent accesses per half-life window".  Memory is
    bounded: at most [capacity] keys are tracked, and inserting beyond that
    evicts the coldest entries — cold keys are exactly the ones no placement
    decision cares about.

    All operations are deterministic functions of the recorded event
    sequence and the supplied clock values; nothing here draws randomness. *)

open Zeus_store

val half_life_us : float
(** Decay: a rate halves every [half_life_us] (5 ms). *)

val capacity : int
(** Max tracked keys (4096); beyond it the coldest go. *)

type t

val create : nodes:int -> t

val record : t -> key:Types.key -> node:Types.node_id -> now:float -> unit
(** One access to [key] by [node] at virtual time [now]. *)

val rate : t -> key:Types.key -> node:Types.node_id -> now:float -> float
(** Decayed access rate of [node] on [key]; [0.] for untracked keys. *)

val rates : t -> key:Types.key -> now:float -> float array
(** Per-node decayed rates (a fresh array of length [nodes]). *)

val total : t -> key:Types.key -> now:float -> float

val top_node : t -> key:Types.key -> now:float -> (Types.node_id * float) option
(** Hottest accessor and its rate; ties break to the lowest node id.
    [None] when the key is untracked or fully decayed. *)

val tracked : t -> int
(** Number of keys currently tracked — bounded by [capacity]. *)

val iter : t -> (Types.key -> unit) -> unit
