(** Declarative fault plans.

    A schedule is pure data: a named, seeded list of [(virtual time, fault)]
    steps, printable for bug reports and replayable bit-for-bit — running
    the same schedule on the same cluster seed reproduces the identical
    fault timeline (the chaos analogue of the simulator's determinism
    guarantee).  Schedules say {e what} happens and {e when}; the
    {!Nemesis} is the only component that touches the cluster. *)

type fault =
  | Crash of int                                    (** crash-stop via membership *)
  | Restart of int                                  (** rejoin as a fresh incarnation *)
  | Partition of int * int                          (** symmetric link cut *)
  | Partition_oneway of { src : int; dst : int }    (** drop src->dst only *)
  | Heal of int * int
  | Heal_oneway of { src : int; dst : int }
  | Heal_all
  | Spike of { loss : float; dup : float; delay_us : float }
      (** arm a cluster-wide link-quality spike *)
  | Spike_end
  | Scramble of { prob : float }
      (** arm cluster-wide delivery-order scrambling: each message
          overtakes the latest in-flight one on its link with probability
          [prob] ({!Zeus_net.Fabric.set_scramble} — independent of the
          spike, so the two can overlap) *)
  | Scramble_end
  | Slow of { node : int; factor : float }          (** gray node: latency multiplier *)
  | Slow_end of int

type step = { at_us : float; fault : fault }

type t = private { name : string; seed : int64; steps : step list }
(** [steps] is sorted by [at_us] (stable for equal times). *)

val v : name:string -> ?seed:int64 -> step list -> t
(** Sorts the steps; [seed] (default 0) records provenance for printing. *)

val empty : t
val is_empty : t -> bool
val steps : t -> step list
val length : t -> int
val equal : t -> t -> bool

(** {2 Common fault windows} — each returns the steps of one incident. *)

val crash_restart : node:int -> at_us:float -> down_us:float -> step list
val spike_window :
  at_us:float ->
  duration_us:float ->
  ?loss:float ->
  ?dup:float ->
  ?delay_us:float ->
  unit ->
  step list

val scramble_window :
  at_us:float -> duration_us:float -> ?prob:float -> unit -> step list
(** One delivery-order-scrambling incident ([prob] defaults to 0.3).  Not
    drawn by {!random} — an ordered transport re-orders the permutation
    away, so it is only interesting on [Transport.unordered] clusters,
    which the random plan knows nothing about (and adding it there would
    reshuffle every existing seeded plan). *)

val random :
  seed:int64 ->
  nodes:int ->
  start_us:float ->
  duration_us:float ->
  ?faults:int ->
  unit ->
  t
(** A stochastic plan drawn from its own rng (independent of any engine):
    [faults] incident windows (default 3) of random kinds — crash/restart,
    symmetric and one-sided partitions, loss/dup/delay spikes, slow
    nodes — inside [\[start_us, start_us + duration_us)], with at most one
    node down at a time, every window closed before the end, and a final
    [Heal_all] so the cluster can converge.  Same seed, same plan. *)

val fault_to_string : fault -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
