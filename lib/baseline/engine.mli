(** Baseline distributed transactions: OCC with two-phase commit and
    primary-backup replication over the simulated fabric (§6.1).

    Keys are statically sharded: [primary_of key] never changes (no dynamic
    ownership — this is exactly what Zeus adds).  A transaction from node
    [c] executes:

    + {e read} — versioned reads from every key's primary (remote = 1 RTT;
      one-sided profiles skip remote CPU);
    + {e lock + validate} — write keys are locked at their primaries iff
      unchanged, read keys re-validated (one combined round for FaSST-like
      profiles, two serial rounds otherwise); any conflict aborts and
      retries with back-off;
    + {e log} — write values are logged at every backup of each written key;
    + {e commit} — primaries bump versions and unlock (plus any profile
      extra rounds).

    The engine stores versions and locks (not values): it exists to measure
    protocol cost on identical workloads, as the paper does with published
    baseline numbers. *)

type t

val create :
  ?profile:Profile.t ->
  ?config:Zeus_core.Config.t ->
  primary_of:(int -> int) ->
  unit ->
  t
(** Shares the Zeus cost model ({!Zeus_core.Config}): same fabric, same
    per-message CPU, same thread counts. *)

val engine : t -> Zeus_sim.Engine.t
val profile : t -> Profile.t

val submit : t -> home:int -> Zeus_workload.Spec.t -> (bool -> unit) -> unit
(** Run one transaction from coordinator [home]; the callback receives
    [true] on commit, [false] after [max_retries] aborts. *)

val run_load :
  t ->
  ?coroutines:int ->
  warmup_us:float ->
  duration_us:float ->
  gen:(home:int -> Zeus_workload.Spec.t) ->
  unit ->
  Zeus_workload.Driver.result
(** Closed-loop load from every node ([coroutines] concurrent transactions
    per node, defaulting to 16 per app thread — modelling FaSST's coroutine
    multiplexing), measured by {!Zeus_workload.Driver.measure}: the same
    window, stagger, counting and latency histogram as the Zeus runs. *)

val committed : t -> int
val aborted : t -> int

val metrics : t -> Zeus_telemetry.Metrics.t
(** Typed registry ([baseline.committed], [baseline.aborted],
    [baseline.retries]). *)
