(** Typed metric registry: counters and latency histograms.

    Call sites register once ([Counter.v], [Histogram.v]) and keep the
    returned {e handle} — an OCaml value, so a typo in a metric name is a
    compile error at the declaration site, not a silently fresh counter.
    {!Zeus_sim.Stats} remains the underlying storage: counter handles are
    [Stats.Counter] cells (resolved once, so the hot path is a single ref
    update) and histograms embed a [Stats.Summary] and a [Stats.Samples]
    reservoir so the existing percentile code is reused, not duplicated. *)

type t
type hist

val create : unit -> t
(** A fresh registry.  Its histogram reservoirs share one RNG with a
    fixed seed, so runs are deterministic. *)

val counters : t -> (string * int) list
(** All registered counters, sorted by name. *)

val histograms : t -> (string * hist) list
(** In registration order. *)

module Counter : sig
  type h = int ref

  val v : t -> string -> h
  (** Register (or look up) a counter; idempotent per name. *)

  val incr : ?by:int -> h -> unit
  val get : h -> int
end

module Histogram : sig
  type h = hist

  val v : t -> string -> h
  (** Register (or look up) a histogram; idempotent per name. *)

  val create : string -> h
  (** A standalone, unregistered histogram (e.g. one per workload run). *)

  val observe : h -> float -> unit
  (** NaN observations are dropped. *)

  val observe_span : h -> start:float -> stop:float -> unit
  (** [observe h (stop -. start)], bit for bit, without boxing the
      difference: with floats already boxed (a clock reading, a stored
      time), a call from another module allocates nothing. *)

  val observe_int : h -> int -> unit
  (** [observe h (float_of_int n)], bit for bit, without boxing the
      float. *)

  val name : h -> string
  val count : h -> int
  val sum : h -> float
  val mean : h -> float
  val min : h -> float
  val max : h -> float

  val percentile : h -> float -> float
  (** Exact (reservoir-based) percentile; [nan] when empty. *)
end
