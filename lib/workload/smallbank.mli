(** Smallbank (§8.2): write-intensive financial transactions.

    Every account is two objects (checking and savings).  The standard mix
    is 85 % write transactions: Amalgamate 15 %, DepositChecking 15 %,
    SendPayment 25 %, TransactSavings 15 %, WriteCheck 15 %, and Balance
    15 % (read-only).

    Accounts are partitioned across nodes; [remote_frac] is the probability
    that a write transaction targets accounts homed on another node —
    modelling the gradual access-pattern change of Figure 8 (Zeus then
    migrates ownership; the static-sharded baselines execute a distributed
    transaction instead). *)

type t

val create :
  accounts_per_node:int ->
  nodes:int ->
  ?remote_frac:float ->
  ?local_reads:bool ->
  Zeus_sim.Rng.t ->
  t
(** [local_reads] (default true): Balance transactions stay on a replica;
    set false for static-sharded baselines. *)

val checking_key : t -> int -> int
val savings_key : t -> int -> int
val total_keys : t -> int
val home_of_key : t -> int -> int
val initial_value : Zeus_store.Value.t

val populate : t -> Zeus_core.Cluster.t -> unit
(** Install every account's two objects on their home node, at
    [initial_value]. *)

val gen : t -> home:int -> Spec.t
(** One transaction from the mix, issued from node [home]. *)

val table_summary : string * int * int * int * int
(** Table 2 row: (name, tables, columns, tx types, read-tx %). *)
