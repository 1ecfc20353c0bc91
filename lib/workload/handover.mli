(** Cellular handovers benchmark (§8.1), modelled on 3GPP control-plane
    operations.

    Objects: one ~400 B context per user, one context per base station.
    Operations (all write transactions, committing ~400 B):
    - {e service request} / {e release}: update the user's context and the
      context of its current base station;
    - {e handover}: two transactions — start (user + old station, on the old
      station's node) and end (user + new station, on the new station's
      node).  A {e remote} handover crosses nodes: the end transaction must
      acquire ownership of the user's context (1 ownership request).

    [handover_frac] is the handover share of all requests (2.5 % typical,
    5 % = doubled mobility); the remote share of handovers comes from the
    {!Mobility} model. *)

type t

val create :
  users_per_node:int ->
  stations_per_node:int ->
  nodes:int ->
  handover_frac:float ->
  remote_handover_frac:float ->
  Zeus_sim.Rng.t ->
  t

val user_key : t -> int -> int
val station_key : t -> int -> int
val total_keys : t -> int
val home_of_key : t -> int -> int
val user_context : Zeus_store.Value.t
val station_context : Zeus_store.Value.t
val is_user_key : t -> int -> bool

val populate : t -> Zeus_core.Cluster.t -> unit
(** Install every user context ([user_context]) and base-station context
    ([station_context]) on its home node. *)

val gen : t -> home:int -> thread:int -> threads:int -> Spec.t * Spec.t option
(** One operation issued at node [home]: the transaction, plus the second
    transaction when the operation is a handover. *)

val issue :
  t -> Zeus_core.Node.t -> thread:int -> (Zeus_store.Txn.outcome -> unit) -> unit
(** Run one transaction of the mix from the node: a handover's second
    transaction runs on the same thread's next call, before any new
    operation is drawn. *)

val table_summary : string * int * int * int * int
