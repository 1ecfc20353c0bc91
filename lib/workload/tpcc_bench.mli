(** Executable TPC-C (an extension — the paper analyses TPC-C's locality
    but defers running it, §8 "we leave the experimental evaluation of
    TPC-C for future work because our current implementation of Zeus does
    not support range queries").

    This is the standard research-prototype adaptation that avoids range
    scans: customer look-ups are by id, and each district object embeds its
    recent-order and undelivered-order lists, so Delivery and Stock-Level
    run on point accesses.  The five transactions keep their standard mix
    (New-Order 45 %, Payment 43 %, Order-Status 4 %, Delivery 4 %,
    Stock-Level 4 %) and the spec's remote probabilities (1 % of order
    lines supply from a remote warehouse, 15 % of payments touch a remote
    customer).

    Warehouses are partitioned across nodes with all their rows
    (districts, customers, stocks) co-located — the sharding the paper's
    locality analysis assumes. *)

type t

val create : warehouses:int -> nodes:int -> Zeus_sim.Rng.t -> t
(** Each warehouse has 10 districts of 300 customers and 1000 stock
    items. *)

val nodes : t -> int
val home_of_warehouse : t -> int -> int

val home_of_key : t -> int -> int
(** Static (warehouse-partitioned) home of any key — the baseline's
    [primary_of]. *)

val populate : t -> Zeus_core.Cluster.t -> unit
(** Install warehouses, districts, customers and stocks with their initial
    values (co-located per warehouse). *)

val issue :
  t -> Zeus_core.Node.t -> thread:int -> (Zeus_store.Txn.outcome -> unit) -> unit
(** Run one transaction from the mix on a warehouse local to the node
    (remote accesses arise from the spec's remote-line/customer rules). *)

val gen_spec : t -> home:int -> Spec.t
(** Key-set approximation of the same mix for the baseline engine. *)

(** Statistics for validating against the paper's locality analysis. *)

val new_orders : t -> int
val payments : t -> int
val remote_line_fraction : t -> float
(** Fraction of issued stock lines that touched a remote warehouse. *)
