(** Discrete-event simulation engine.

    The engine owns a virtual clock (in microseconds) and a queue of timed
    callbacks.  All protocol code in this repository is written against this
    engine: "sending a message" or "doing work for [d] µs" schedules a
    callback [d] µs in the virtual future.  Runs are deterministic: two runs
    with the same seed execute the same event sequence. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val no_event : event_id
(** An id {!schedule} never returns: a sentinel for "no event", so a
    timer field can be a plain [event_id] instead of an option that
    allocates a [Some] per arming.  Cancelling it is a no-op. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine with clock at 0.  Default seed is 42. *)

val now : t -> float
(** Current virtual time in microseconds. *)

val rng : t -> Rng.t
(** The engine's root random stream. *)

val fork_rng : t -> Rng.t
(** An independent random stream derived from the engine's root stream. *)

val schedule : t -> after:float -> (unit -> unit) -> event_id
(** [schedule t ~after f] runs [f] at [now t +. max after 0.]. Events with
    equal times fire in scheduling order.  Scheduling and dispatch
    allocate nothing of their own in steady state, bar the box of a new
    clock value when a dispatch moves the clock; a caller that passes a
    computed [after] boxes it (2 words), and a closure built per call is
    the caller's cost — prebuild it. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant; times in the past fire "now". *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or cancelled event, or {!no_event}, is a
    no-op. *)

val pending : t -> int
(** Number of scheduled (non-cancelled) events. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Dispatch events in time order until the queue drains, the clock passes
    [until], or [max_events] events have fired.  The clock is left at the
    time of the last dispatched event (or [until] if that bound stopped a
    pending queue). *)

val events_dispatched : t -> int
