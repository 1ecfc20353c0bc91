type t = {
  key : Types.key;
  mutable role : Types.role;
  mutable t_state : Types.t_state;
  mutable t_version : int;
  mutable data : Value.t;
  mutable o_state : Types.o_state;
  mutable o_ts : Ots.t;
  mutable o_replicas : Replicas.t option;
  mutable lock_thread : int;  (* [no_thread] when unlocked *)
  mutable last_writer_thread : int;
  mutable pending_rc : int;
}

let no_thread = -1

let create ~key ~role ?(version = 0) ?(o_ts = Ots.zero) data =
  {
    key;
    role;
    t_state = Types.T_valid;
    t_version = version;
    data;
    o_state = Types.O_valid;
    o_ts;
    o_replicas = None;
    lock_thread = no_thread;
    last_writer_thread = -1;
    pending_rc = 0;
  }

let is_owner t = t.role = Types.Owner

let busy t = t.lock_thread <> no_thread || t.pending_rc > 0 || t.t_state <> Types.T_valid

let can_lock t ~thread =
  (t.lock_thread = no_thread || t.lock_thread = thread)
  && (t.pending_rc = 0 || t.last_writer_thread = thread)

let lock t ~thread =
  assert (can_lock t ~thread);
  t.lock_thread <- thread

let unlock t ~thread =
  if t.lock_thread = thread then t.lock_thread <- no_thread

let pp ppf t =
  Format.fprintf ppf "#%d %a t=%a v=%d o=%a ts=%a rc=%d" t.key Types.pp_role t.role
    Types.pp_t_state t.t_state t.t_version Types.pp_o_state t.o_state Ots.pp t.o_ts
    t.pending_rc
