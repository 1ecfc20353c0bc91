(** Online invariant monitors and the goodput timeline.

    Attached to a cluster before the workload starts, a monitor samples two
    things on the virtual clock:

    - {e invariants}, every [sample_us] of {e steady} time — all nodes
      alive, no membership reconfiguration in flight, and at least
      4 ms since the last injected fault.  Checked online: at most
      one {e usable} owner per key — role Owner with [o_state = O_valid];
      a stale owner mid-handover keeps its role until the O-VAL drains
      through the in-order flow but is invalidated and cannot commit —
      (flagged only when it persists across two consecutive samples, so a
      mid-arbitration handover is not a false positive) and per-key
      version monotonicity over live copies (a
      regression of the version watermark is a lost update; invalidated
      followers already carry the in-flight version, so the max over all
      copies — unlike the max over valid copies — is monotone even under
      pipelined writes).  The checks keep one persistent record per key,
      updated in place, so a steady-state sample allocates nothing;

    - the {e goodput timeline}, every [window_us]: committed transactions
      of the observed nodes per window.  {!recovery_us} extracts the
      paper's §8 recovery metric from it — time from fault injection until
      the windowed goodput is back to 90 % of the pre-fault mean for two
      consecutive windows.

    {!stop} cancels the sampling events (so a drain can quiesce), and
    {!check_final} runs the full post-quiesce convergence check: the
    cluster invariants of {!Zeus_core.Cluster.check_invariants} plus
    replica convergence — every surviving key must retain at least one
    valid copy after all faults heal. *)

val sample_us : float
(** Invariant sampling period: 200 µs. *)

val window_us : float
(** Goodput bin width: 500 µs. *)

val baseline_windows : int
(** Windows averaged for the pre-fault mean: 8. *)

type t

val attach : ?observed:int list -> Zeus_core.Cluster.t -> t
(** Starts sampling at the next sample/window boundary.  [observed]
    (default: all nodes) names the nodes whose committed counts feed the
    goodput timeline — pass the expected survivors when a scenario crashes
    a driving node, so the recovery metric tracks surviving capacity. *)

val note_fault : t -> unit
(** Fault injected now: opens the 4 ms suppression window. *)

val stop : t -> unit
(** Cancel the recurring sampling events; timelines and violations remain
    readable.  Idempotent. *)

val samples : t -> int
val violations : t -> string list
(** Oldest first; empty when every online check passed. *)

val ok : t -> bool

val timeline : t -> (float * int) list
(** [(window_start_us, committed_in_window)], oldest first, including the
    currently filling window. *)

val goodput : t -> (float * float) list
(** The timeline in committed transactions per µs (Mtps). *)

val recovery_us : t -> fault_at_us:float -> float option
(** Recovery time for a fault at the given instant, or [None] if goodput
    never recovered inside the recorded timeline. *)

val recovery_of_timeline :
  window_us:float ->
  frac:float ->
  baseline_windows:int ->
  fault_at_us:float ->
  (float * int) list ->
  float option
(** Pure extraction, exposed for tests: same computation as
    {!recovery_us} over an explicit [(window_start, count)] timeline. *)

val check_final : t -> (unit, string) result
(** Post-quiesce: any recorded online violation, then the cluster
    invariant suite, then replica convergence (every key with live
    holders has at least one valid copy). *)
