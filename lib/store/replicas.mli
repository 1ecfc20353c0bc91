(** The [o_replicas] metadata: which node owns an object and which nodes
    hold reader replicas (§4).  Stored at the directory and at the owner.

    Values are immutable, so one set is shared by every object placed the
    same way (e.g. all objects a node seeds or creates). *)

type t = { owner : Types.node_id option; readers : Types.node_id list }
(** [readers] never holds the owner: every constructor below keeps it out,
    so {!all} need not filter. *)

val none : t
(** No owner, no readers: the [o_replicas] of an object this node does not
    own.  One shared value, tested physically ([== none]); a set that
    {!drop_dead} empties is a different value. *)

val v : owner:Types.node_id -> readers:Types.node_id list -> t
(** [readers] must be duplicate-free; [owner] is dropped from it. *)

val all : t -> Types.node_id list
(** Owner (if any) followed by readers, no duplicates. *)

val is_replica : t -> Types.node_id -> bool
val is_owner : t -> Types.node_id -> bool
val is_reader : t -> Types.node_id -> bool
val count : t -> int

val promote : t -> new_owner:Types.node_id -> t
(** Ownership transfer: [new_owner] becomes owner; the previous owner (if
    any, and if distinct) is demoted to reader; [new_owner] is removed from
    the readers. *)

val add_reader : t -> Types.node_id -> t
val remove_reader : t -> Types.node_id -> t

val drop_dead : t -> live:(Types.node_id -> bool) -> t
(** Remove non-live nodes (membership reconfiguration, §4.1).  Returns [t]
    itself when every member is live, keeping shared sets shared. *)

val pp : Format.formatter -> t -> unit
