(** Application-level load balancer (§3.1).

    Extracts a key from each request and forwards all requests with the
    same key to the same backend: the key→destination map lives in a
    {!Hermes} replica on each balancer node.  On a miss the balancer picks
    a destination (uniformly among the live backends), records it, and
    forwards — so transactions on the same objects keep landing on the same
    Zeus node, which is what makes ownership stick. *)

type t

val create :
  node:Zeus_net.Msg.node_id ->
  lb_nodes:Zeus_net.Msg.node_id list ->
  backends:Zeus_net.Msg.node_id list ->
  Zeus_net.Transport.t ->
  t

val hermes : t -> Hermes.t

val route : t -> key:int -> (Zeus_net.Msg.node_id -> unit) -> unit
(** Destination backend for a request on [key]; assigns one on first
    sight. *)

val set_backends : t -> Zeus_net.Msg.node_id list -> unit
(** Scale-out / scale-in: future assignments use the new backend set
    (existing assignments are sticky). *)

val set_placement_hint : t -> (int -> Zeus_net.Msg.node_id option) -> unit
(** Placement-engine override consulted before the sticky map — wire to
    {!Zeus_locality.Engine.route_for_key} so transactions on a key the
    locality planner pinned follow the pin immediately.  [None] falls
    through to normal routing. *)

val reassign : t -> key:int -> Zeus_net.Msg.node_id -> (unit -> unit) -> unit
(** Explicitly re-pin a key (e.g. spreading a hot object §2.2, or a
    locality-engine pin made durable). *)

val handle : t -> src:Zeus_net.Msg.node_id -> Zeus_net.Msg.payload -> bool
val hits : t -> int
val misses : t -> int

val reassigns : t -> int
