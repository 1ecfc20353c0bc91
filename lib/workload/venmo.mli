(** Synthetic peer-to-peer payment graph (§2.2, §8 "Venmo transactions").

    Substitutes the public Venmo dataset: users form small communities
    (friend groups) with most payments inside the community and a small
    inter-community fraction; communities are placed whole onto nodes.
    Calibrated so the cross-node transaction fraction lands near the
    paper's 0.7 % (3 nodes) and 1.2 % (6 nodes). *)

type t

val users : int
(** Number of users (100 000), in communities of 30; 1.3 % of payments
    leave the payer's community. *)

val create : nodes:int -> Zeus_sim.Rng.t -> t

val node_of_user : t -> int -> int

val gen_pair : t -> int * int
(** (payer, payee) of one payment. *)

val remote_fraction : ?samples:int -> t -> float
(** Monte-Carlo estimate of the cross-node payment fraction. *)
