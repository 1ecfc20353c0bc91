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
  issue:(Zeus_core.Node.t -> thread:int -> seq:int -> (bool -> unit) -> unit) ->
  unit ->
  result
(** [issue node ~thread ~seq done_] must run exactly one transaction and
    call [done_ committed] at its completion.  [nodes] defaults to all,
    [threads] to the configured app threads per node. *)

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
