(** Per-node predictive locality engine (integration of the subsystem).

    The engine turns ownership placement from reactive to predictive while
    changing {e nothing} about the protocols: it only watches (access and
    arbitration events), plans (hysteresis + anti-ping-pong policy), and
    acts through the ordinary ownership API, rate-limited.

    Data flow on every node:

    {v
      txn path ──────────────► note_local_access ─┐
      ownership agent (driver/arbiter observer) ──┤► Access_log + Predictor
      ownership changes ──────► note_owner_change ┘        │
                                                           ▼
      idle-gap timer per owned key ──────────────────► Planner.decide
            │ Stay          │ Prefetch t             │ Pin t / Replicate t
            ▼               ▼                        ▼
           (nothing)   L_hint ──► node t:        on_pin callback
                       Migrator.prefetch         (e.g. Balancer.reassign)
                       (token bucket)
    v}

    A prefetch plan is executed by the {e predicted} node (hint + pull), so
    the data and the arbitration flow exactly as in a reactive acquire.
    Hints fire only after a key has gone idle locally for 60 µs —
    migrating a key still in active local use is how ping-pong starts, so
    idleness is the precondition, and the planner's hysteresis and pinning
    stabilize whatever the idle trigger still gets wrong.

    With [enabled = false] (the default) the engine is never constructed
    and every code path in the node runtime is byte-identical to the seed
    reactive behaviour. *)

open Zeus_store

type config = { enabled : bool; planner : Planner.config; migrator : Migrator.config }
(** The engine's {!Access_log} has a fixed half-life and capacity
    ({!Access_log.half_life_us}, {!Access_log.capacity}). *)

val default_config : config
(** [enabled = false]: seed behaviour. *)

val enabled_default : config
(** [default_config] with [enabled = true] — the experiments' baseline. *)

type t

val create :
  ?telemetry:Zeus_telemetry.Hub.t ->
  config:config ->
  node:Types.node_id ->
  nodes:int ->
  engine:Zeus_sim.Engine.t ->
  transport:Zeus_net.Transport.t ->
  agent:Zeus_ownership.Agent.t ->
  is_owner:(Types.key -> bool) ->
  unit ->
  t

(** {1 Event feeds} *)

val note_local_access : t -> key:Types.key -> write:bool -> unit
(** Called by the node runtime on every transactional access. *)

val note_request : t -> key:Types.key -> kind:Zeus_ownership.Messages.kind ->
  requester:Types.node_id -> unit
(** Called when this node drives/arbitrates an ownership request. *)

val note_owner_change : t -> key:Types.key -> owner:Types.node_id -> unit
(** Called when an ownership change validates at this node. *)

val handle : t -> src:Types.node_id -> Zeus_net.Msg.payload -> bool
(** Process a locality hint; [false] if the payload is not ours. *)

(** {1 Placement output} *)

val route_for_key : t -> Types.key -> Types.node_id option
(** Pin-aware routing: the pin target while a key is pinned, else [None].
    Load balancers consult this to send a thrashing key's transactions
    where the key is pinned. *)

val set_on_pin : t -> (key:Types.key -> target:Types.node_id -> unit) -> unit
(** Invoked (once per pin) on the node a key gets pinned to — wire this to
    {!Zeus_lb.Balancer.reassign} to re-route at the source. *)

(** {1 Introspection} *)

val access_log : t -> Access_log.t
val predictor : t -> Predictor.t
val planner : t -> Planner.t
val migrator : t -> Migrator.t

val metrics : t -> Zeus_telemetry.Metrics.t
(** The engine's typed registry (counters under ["locality."]). *)

val counters : t -> (string * int) list
(** Snapshot of the registry's counters: ["locality.hints_sent"],
    ["locality.hints_received"], ["locality.prefetch_hits"],
    ["locality.prefetch_misses"], ["locality.migrations_observed"],
    ["locality.replicate_hints"], … *)

val prefetch_hits : t -> int
val prefetch_misses : t -> int
val hints_sent : t -> int
val migrations_observed : t -> int
