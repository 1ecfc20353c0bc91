(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that a run is a pure function of its seed.  [split] derives an
    independent stream, which lets concurrent components consume randomness
    without perturbing each other's sequences. *)

type t

val create : int64 -> t
(** [create seed] returns a generator seeded with [seed]. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of [t]'s
    subsequent outputs. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The draw behind {!float}, in [\[0, 2{^53})]: [float t bound] is
    [bound *. (float_of_int (bits53 t) /. 0x1p53)] of the same draw.  A
    hot caller in another module writes that out to keep its floats
    unboxed: there, a float passed to or returned from {!float} or
    {!chance} is boxed, since the dev profile's [-opaque] inlines nothing
    across modules. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

(** Zipf-distributed integers in [\[0, n)] (YCSB-style generator). *)
module Zipf : sig
  type rng := t
  type t

  val create : n:int -> theta:float -> t
  val sample : t -> rng -> int
end
