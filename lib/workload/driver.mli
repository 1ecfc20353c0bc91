(** Closed-loop load driver.

    Models the paper's setup of "enough colocated clients to saturate each
    evaluated system" (§8): every app thread of every participating node
    issues transactions back-to-back.  Only completions inside the
    measurement window (after warm-up) are counted.

    {b Retry.}  By default an aborted transaction is dropped (counted and
    replaced by a fresh one) — the historical behaviour, and the right one
    for measuring raw abort rates.  Passing [retry] makes the driver
    re-issue an aborted transaction up to [max_attempts] total issues,
    spaced by capped exponential backoff ([base_us * 2^(attempt-1)], capped
    at [cap_us]) with a deterministic avalanche-hash jitter of the
    (node, thread, seq, attempt) identity — no rng draw, so a retrying run
    perturbs no other seeded decision.  A transaction that eventually
    commits is counted {e once}, with latency measured from its first
    issue; only a transaction that exhausts its attempts counts as
    aborted.  Each re-issue bumps the [driver.retries] counter (registered
    on the cluster hub only when retrying is on). *)

(** [max_attempts] is total issues per logical transaction (>= 1). *)
type retry = { max_attempts : int; base_us : float; cap_us : float }

val default_retry : retry
(** 3 attempts, 20 µs base, 400 µs cap. *)

type result = {
  committed : int;
  aborted : int;       (** logical transactions that exhausted their attempts *)
  retries : int;       (** re-issues inside the measurement window *)
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
  ?retry:retry ->
  warmup_us:float ->
  duration_us:float ->
  issue:(Zeus_core.Node.t -> thread:int -> seq:int -> (bool -> unit) -> unit) ->
  unit ->
  result
(** [issue node ~thread ~seq done_] must run exactly one transaction and
    call [done_ committed] at its completion.  [nodes] defaults to all,
    [threads] to the configured app threads per node, [retry] to none. *)

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
