(** A replica's copy of one object, with the per-object metadata of Table 1:
    transactional state ([t_state], [t_version], [t_data]), ownership state
    ([o_state], [o_ts], [o_replicas] — populated at the owner), and the
    local-commit bookkeeping used for multi-threaded local ownership and
    pipelining (§5.2, §7). *)

type t = {
  key : Types.key;
  mutable role : Types.role;
  mutable t_state : Types.t_state;
  mutable t_version : int;
  mutable data : Value.t;
  mutable o_state : Types.o_state;
  mutable o_ts : Ots.t;
  mutable o_replicas : Replicas.t option;  (** owner and directory only *)
  mutable lock_thread : int;
      (** local thread executing a write transaction on the object; [-1]
          when none *)
  mutable last_writer_thread : int;
      (** pipeline that issued the newest local commit *)
  mutable pending_rc : int;
      (** reliable commits in flight that modified this object *)
}

val create :
  key:Types.key -> role:Types.role -> ?version:int -> ?o_ts:Ots.t -> Value.t -> t

val is_owner : t -> bool

val busy : t -> bool
(** The object is in a still-executing or still-replicating transaction:
    an ownership request for it is NACKed, and a trim waits. *)

val can_lock : t -> thread:int -> bool
(** Local ownership rule (§7 + §5.2): a thread may acquire the object if no
    other thread holds it {e and} the object is not in another thread's
    still-replicating pipeline. *)

val lock : t -> thread:int -> unit
val unlock : t -> thread:int -> unit

val pp : Format.formatter -> t -> unit
