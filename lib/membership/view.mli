(** A membership view: the epoch id and the set of live nodes.

    Every view change increments [epoch]; protocol messages carry the
    sender's epoch and receivers drop messages from other epochs (§3.1). *)

type t = { epoch : int; live : bool array }

val initial : nodes:int -> t
val is_live : t -> Zeus_net.Msg.node_id -> bool
val live_list : t -> Zeus_net.Msg.node_id list
val without : t -> Zeus_net.Msg.node_id -> t
(** New view with [epoch + 1] and the node marked dead. *)

val with_node : t -> Zeus_net.Msg.node_id -> t
(** New view with [epoch + 1] and the node marked live (rejoin). *)

val pp : Format.formatter -> t -> unit
