(** Voter (§8.4): a real-time phone-voting system with popularity skew.

    Each vote updates two objects: the contestant's total and the voter's
    history.  Contestant keys are [0 .. contestants - 1]; voter keys follow.
    The Figure 10/11 experiments move contestant/voter objects between nodes
    with {!Zeus_core.Node.acquire_ownership} while votes flow. *)

type t

val create : contestants:int -> voters:int -> nodes:int -> Zeus_sim.Rng.t -> t

val contestant_key : t -> int -> int
val voter_key : t -> int -> int
val total_keys : t -> int
val home_of_key : t -> int -> int
val initial_value : Zeus_store.Value.t

val populate : t -> Zeus_core.Cluster.t -> unit
(** Install every contestant and voter object on its home node, at
    [initial_value]. *)

val gen : t -> home:int -> thread:int -> threads:int -> Spec.t
(** A vote from a voter homed at [home]; the contestant is picked among
    those the load balancer routes to ([home], [thread]). *)

val local_contestants : t -> int -> int list

val table_summary : string * int * int * int * int
