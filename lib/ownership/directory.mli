(** One directory replica's ownership metadata (§4).

    The directory stores, per object: [o_state], [o_ts] and [o_replicas].
    It is replicated on a fixed set of nodes (three in the paper) which act
    as arbiters for every ownership request.  A pending arbitration is
    buffered next to the last-applied state; it is applied on VAL and simply
    dropped on NACK, which keeps rollback trivial.

    Entries live in a {!Zeus_store.Dense_map}: a seeded store's keys are
    array slots, looked up without hashing or boxing. *)

open Zeus_store

type pending = {
  req_id : Messages.request_id;
  o_ts : Ots.t;
  base_ts : Ots.t;  (** the driver's applied [o_ts] at drive time *)
  new_replicas : Replicas.t;
  kind : Messages.kind;
  requester : Types.node_id;
  arbiters : Types.node_id list;
  data_from : Types.node_id option;
  driving : bool;  (** this node is the request's driver *)
  born : float;    (** virtual time the arbitration reached this node *)
}

type entry = {
  key : Types.key;
  mutable o_state : Types.o_state;
  mutable o_ts : Ots.t;
  mutable replicas : Replicas.t;
  mutable pending : pending option;
}

type t

val create : node:Types.node_id -> t
val node : t -> Types.node_id

val dummy : entry
(** The entry {!find} returns for a key with no entry here.  Test for it
    physically ([!= dummy]) and never write to it: every miss returns this
    one value. *)

val dummy_pristine : unit -> bool
(** [dummy] still holds the fields it was created with. *)

val register : t -> Types.key -> Replicas.t -> unit
(** Record a freshly created object (idempotent). *)

val reserve : t -> int -> unit
(** [reserve t n] sizes the directory for keys [\[0, n)] at once (see
    {!Zeus_store.Dense_map.reserve}), so registering them grows no array. *)

val forget : t -> Types.key -> unit

val find : t -> Types.key -> entry
(** The key's entry, or {!dummy}.  Allocates nothing. *)

val size : t -> int

val iter : t -> (entry -> unit) -> unit
(** Every entry once, in the order of {!Zeus_store.Dense_map.iter}. *)

val clear : t -> unit

val set_pending : entry -> pending -> unit
val clear_pending : entry -> unit
(** Roll back to the last applied state. *)

val apply_pending : entry -> unit
(** Commit the pending arbitration: applied state := pending, [o_state = Valid]. *)

val drop_dead : t -> live:(Types.node_id -> bool) -> unit
(** Membership reconfiguration: remove non-live nodes from every applied
    [o_replicas] (§4.1).  Pending arbitrations are left for arb-replay. *)
