(** A transaction described by its key sets.

    Benchmarks generate [t] values; the same spec can then be executed on
    Zeus ({!run_on_zeus}) or on the baseline distributed-commit engine,
    which is how the paper's comparison figures keep both sides on
    identical workloads. *)

type t = {
  reads : int list;   (** keys read but not written *)
  writes : int list;  (** keys read and written *)
  payload : int;      (** bytes written per modified object *)
  exec_us : float;    (** compute time of the transaction logic *)
  read_only : bool;
}

val write_txn : ?reads:int list -> ?payload:int -> ?exec_us:float -> int list -> t
(** [write_txn ~reads writes] *)

val read_txn : ?exec_us:float -> int list -> t

val run_on_zeus :
  Zeus_core.Node.t -> thread:int -> t -> (Zeus_store.Txn.outcome -> unit) -> unit
(** Execute the spec as a Zeus transaction: open every read key, then
    read-modify-write every write key (bumping a counter, padding to
    [payload] bytes), and commit. *)

val issue :
  (home:int -> t) ->
  Zeus_core.Node.t ->
  thread:int ->
  (Zeus_store.Txn.outcome -> unit) ->
  unit
(** [issue gen node ~thread k] runs one spec drawn from [gen] for the
    node's id as home — the [issue] of {!Driver.run} for a workload that
    only generates specs ([Smallbank.gen w], [Tatp.gen w]). *)
