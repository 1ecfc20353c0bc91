(** One node's in-memory object table: every object for which the node is
    owner or reader.  Non-replica objects have no entry. *)

type t

val create : node:Types.node_id -> t
val node : t -> Types.node_id
val find : t -> Types.key -> Obj.t
(** The node's copy of the object, or {!Obj.dummy} when the node is a
    non-replica for the key.  Allocates nothing.  Test the result with
    [!= Obj.dummy] before using it, and never write to the dummy. *)

val mem : t -> Types.key -> bool
val get : t -> Types.key -> Obj.t
(** @raise Not_found when the node is a non-replica for the key. *)

val install : t -> Obj.t -> unit
(** Insert or replace the node's copy of an object. *)

val reserve : t -> int -> unit
(** [reserve t n] sizes the table for keys [\[0, n)] at once (see
    {!Dense_map.reserve}), so installing them grows no array. *)

val remove : t -> Types.key -> unit
val size : t -> int
val iter : t -> (Obj.t -> unit) -> unit

val clear : t -> unit
(** Drop every object (a fresh incarnation's empty table). *)

val copy : t -> t
(** An independent table with a copy of every object: mutating either
    side's objects leaves the other's unchanged. *)
