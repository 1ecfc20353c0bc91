(** Measurement utilities: running summaries, latency samples with
    percentiles/CDFs, and bucketed time series for throughput timelines. *)

(** Running scalar summary (count / mean / min / max). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val add_span : t -> start:float -> stop:float -> unit
  (** [add t (stop -. start)], with the difference never boxed. *)

  val add_int : t -> int -> unit
  (** [add t (float_of_int n)], with the float never boxed. *)

  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end

(** Latency sample set.  Stores up to [cap] samples by reservoir sampling so
    memory stays bounded on long runs; percentiles are computed on demand. *)
module Samples : sig
  type t

  val create : ?cap:int -> Rng.t -> t
  val add : t -> float -> unit

  val add_span : t -> start:float -> stop:float -> unit
  (** [add t (stop -. start)], with the difference never boxed. *)

  val add_int : t -> int -> unit
  (** [add t (float_of_int n)], with the float never boxed. *)

  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile t 99.9] — linear interpolation between stored samples.
      Returns [nan] when empty. *)

  val cdf : t -> points:int -> (float * float) list
  (** [(value, cumulative fraction)] pairs suitable for plotting. *)

  val values : t -> float array
  (** Snapshot of the stored samples (at most [cap]). *)
end

(** Named monotonic event counters (protocol/engine observability). *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int
  (** Unknown names read as [0]. *)

  val cell : t -> string -> int ref
  (** Resolve (registering on first use) the counter's storage cell.
      Typed metric handles ({!Zeus_telemetry.Metrics.Counter}) hold this
      ref so the hashtable lookup is paid once, at registration. *)

  val to_list : t -> (string * int) list
  (** All counters, sorted by name. *)
end

(** Counts bucketed by virtual time — throughput timelines. *)
module Timeseries : sig
  type t

  val create : bucket:float -> t
  (** [bucket] is the width in µs of each bucket. *)

  val add : t -> time:float -> float -> unit

  val buckets : t -> (float * float) list
  (** [(bucket_start_time, sum)] pairs in time order, including empty
      buckets between the first and last used ones. *)

  val rate : t -> (float * float) list
  (** [(bucket_start_time, sum / bucket_width)] — per-µs rates. *)
end

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted a 99.0] on an ascending ([Float.compare]-sorted)
    array.  NaN-safe: NaN elements (sorted to the front) are skipped, [p]
    is clamped to [0, 100], and the result is [nan] only when no real
    samples remain. *)
