type t = {
  key : Types.key;
  mutable role : Types.role;
  mutable t_state : Types.t_state;
  mutable t_version : int;
  mutable data : Value.t;
  mutable o_state : Types.o_state;
  mutable o_ts : Ots.t;
  mutable o_replicas : Replicas.t option;
  mutable lock_thread : int option;
  mutable last_writer_thread : int;
  mutable pending_rc : int;
}

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
    lock_thread = None;
    last_writer_thread = -1;
    pending_rc = 0;
  }

let is_owner t = t.role = Types.Owner

let busy t = t.lock_thread <> None || t.pending_rc > 0 || t.t_state <> Types.T_valid

let can_lock t ~thread =
  (match t.lock_thread with None -> true | Some holder -> holder = thread)
  && (t.pending_rc = 0 || t.last_writer_thread = thread)

let lock t ~thread =
  assert (can_lock t ~thread);
  t.lock_thread <- Some thread

let unlock t ~thread =
  match t.lock_thread with
  | Some holder when holder = thread -> t.lock_thread <- None
  | Some _ | None -> ()

let pp ppf t =
  Format.fprintf ppf "#%d %a t=%a v=%d o=%a ts=%a rc=%d" t.key Types.pp_role t.role
    Types.pp_t_state t.t_state t.t_version Types.pp_o_state t.o_state Ots.pp t.o_ts
    t.pending_rc
