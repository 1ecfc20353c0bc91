(** Shared plumbing for the legacy-application models (§8.5): an open-loop
    request generator (the paper's external load generators) and a
    single-threaded blocking worker (the legacy applications process one
    request at a time — that blocking structure is exactly what makes
    porting to FaRM/FaSST hard and to Zeus easy). *)

module Generator : sig
  type t

  val create :
    Zeus_sim.Engine.t -> rate_per_us:float -> sink:(seq:int -> unit) -> t
  (** Poisson arrivals at [rate_per_us]; each arrival invokes [sink]. *)

  val start : t -> unit
  val stop : t -> unit
  val arrivals : t -> int
end

module Worker : sig
  type t

  val create : Zeus_sim.Engine.t -> serve:(int -> (unit -> unit) -> unit) -> t
  (** A worker thread: requests (session or user ids) are queued and
      served one at a time; [serve] calls its continuation when the
      request completes (it may block on I/O or a transaction in
      between). *)

  val push : t -> int -> unit
  val completed : t -> int
  val queue_length : t -> int
end
