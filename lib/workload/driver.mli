(** Closed-loop load driver.

    Models the paper's setup of "enough colocated clients to saturate each
    evaluated system" (§8): every app thread of every participating node
    issues transactions back-to-back.  Only completions inside the
    measurement window (after warm-up) are counted.

    {b Aborts.}  The driver never re-issues a transaction: an aborted one
    is counted and replaced by a fresh one.  {!Zeus_core.Node.run_write}
    and [run_read] already retry every abort with back-off, up to
    [Config.max_retries], so an abort seen here is one that exhausted
    those retries. *)

type result = {
  committed : int;
  aborted : int;
  duration_us : float;
  mtps : float;        (** committed transactions per µs × 10⁶ / 10⁶ = Mtps *)
  abort_rate : float;
  lat_p50_us : float;  (** committed-transaction latency percentiles *)
  lat_p99_us : float;
}

val pp_result : Format.formatter -> result -> unit

val run :
  Zeus_core.Cluster.t ->
  ?nodes:int list ->
  ?threads:int ->
  warmup_us:float ->
  duration_us:float ->
  issue:(Zeus_core.Node.t -> thread:int -> (Zeus_store.Txn.outcome -> unit) -> unit) ->
  unit ->
  result
(** [issue node ~thread k] must run exactly one transaction and call [k]
    with its outcome — {!Spec.run_on_zeus} and the workloads' own [issue]
    functions fit as they are.  [nodes] defaults to all, [threads] to the
    configured app threads per node; a node's threads stop issuing once it
    is down. *)

val measure :
  Zeus_sim.Engine.t ->
  nodes:int list ->
  threads:int ->
  warmup_us:float ->
  duration_us:float ->
  (int -> thread:int -> (bool -> unit) -> unit) ->
  result
(** The measured closed loop under {!run}, for an engine without a cluster
    (the static-sharding baselines').  Every (node, thread) pair starts at
    [0.01 * (node * threads + thread)] µs and calls [issue node ~thread
    done_] back-to-back until the window closes; [issue] runs one
    transaction and calls [done_ committed] at its end, or returns without
    calling it to retire the pair.  Completions from [warmup_us] after the
    start until [duration_us] later are counted; the engine then drains
    for 5 ms without counting. *)

val closed_loop :
  Zeus_core.Cluster.t ->
  nodes:int list ->
  ?threads:int ->
  (Zeus_core.Node.t -> Spec.t) ->
  unit ->
  unit
(** [closed_loop cluster ~nodes gen] is the crash-tolerant closed loop of
    the fault experiments: every (node, thread) pair of [nodes] starts at
    [0.1 * (node * threads + thread)] µs and runs [gen node] back-to-back,
    whatever the outcome, until the returned [stop] is called; while its
    node is down it polls every 250 µs for the rejoin instead of stopping.  Nothing is measured — the caller runs the
    cluster and reads its own counters.  [threads] defaults to the
    configured app threads per node. *)
