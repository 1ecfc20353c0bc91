(** TATP (§8.3): read-intensive telecom benchmark — 80 % read and 20 %
    write transactions over subscriber records.

    Each subscriber is three objects (subscriber record, access info, call
    forwarding).  As in Figure 9, [remote_frac] is the probability that a
    {e write} transaction targets a subscriber homed on another node;
    read-only transactions are always routed to a replica (the
    application-level load balancer keeps them local, §3.1). *)

type t

val create :
  subscribers_per_node:int ->
  nodes:int ->
  ?remote_frac:float ->
  ?local_reads:bool ->
  Zeus_sim.Rng.t ->
  t
(** [local_reads] (default true): read transactions stay on a replica (the
    Zeus behaviour, where the LB and ownership migration preserve read
    locality); set false for static-sharded baselines whose reads drift
    remote with [remote_frac]. *)

val sub_key : t -> int -> int
val access_key : t -> int -> int
val fwd_key : t -> int -> int
val total_keys : t -> int
val home_of_key : t -> int -> int
val initial_value : Zeus_store.Value.t

val populate : t -> Zeus_core.Cluster.t -> unit
(** Install every subscriber's three objects on their home node, at
    [initial_value]. *)

val gen : t -> home:int -> Spec.t
val table_summary : string * int * int * int * int
