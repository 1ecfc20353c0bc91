(** One telemetry hub per cluster: the shared typed-metric registry plus
    the trace-span sink, both stamped from the same sim clock.

    Components take an optional hub at construction; {!none} gives a
    private, tracing-disabled hub so standalone unit setups need no
    wiring. *)

type t

val create : ?tracing:bool -> ?max_spans:int -> now:(unit -> float) -> unit -> t
(** [now] is the virtual clock, normally [Zeus_sim.Engine.now]. *)

val none : unit -> t
(** A fresh disconnected hub (disabled tracing, clock pinned at 0). *)

val metrics : t -> Metrics.t
val trace : t -> Trace.t
val tracing : t -> bool
