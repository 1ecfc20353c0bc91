type abort_reason =
  | Lock_conflict of Types.key
  | Invalidated of Types.key
  | Not_replica of Types.key
  | Ownership_refused of Types.key
  | Node_dead

let pp_abort ppf = function
  | Lock_conflict k -> Format.fprintf ppf "lock-conflict(#%d)" k
  | Invalidated k -> Format.fprintf ppf "invalidated(#%d)" k
  | Not_replica k -> Format.fprintf ppf "not-replica(#%d)" k
  | Ownership_refused k -> Format.fprintf ppf "ownership-refused(#%d)" k
  | Node_dead -> Format.fprintf ppf "node-dead"

type outcome = Committed | Aborted of abort_reason

type update = { key : Types.key; version : int; data : Value.t; freed : bool }

type t = {
  table : Table.t;
  mutable thread : int;
  mutable read_only : bool;
  (* write txn state *)
  mutable locked : Types.key array;  (* locks taken, oldest first in [0, n_locked) *)
  mutable n_locked : int;
  copies : (Types.key, Value.t) Hashtbl.t;  (* private copies (open_write) *)
  mutable creates : (Types.key * Value.t) list;
  mutable frees : Types.key list;
  (* read-only txn state: (key, version) snapshots, oldest first in
     [0, n_snaps) *)
  mutable snap_keys : Types.key array;
  mutable snap_versions : int array;
  mutable n_snaps : int;
  mutable finished : bool;
  mutable publish_copy : Types.key -> Value.t -> update list -> update list;
      (* [publish_copy] of this transaction, built once at [create] *)
}

let publish t obj data ~freed =
  obj.Obj.data <- data;
  obj.Obj.t_version <- obj.Obj.t_version + 1;
  obj.Obj.t_state <- Types.T_write;
  obj.Obj.pending_rc <- obj.Obj.pending_rc + 1;
  obj.Obj.last_writer_thread <- t.thread;
  Obj.unlock obj ~thread:t.thread;
  { key = obj.Obj.key; version = obj.Obj.t_version; data; freed }

(* Publish a private copy (skip objects that are also freed).  Folded over
   the copies in table order; the table's order is the updates' order. *)
let publish_copy t key data updates =
  if List.mem key t.frees then updates
  else publish t (Table.get t.table key) data ~freed:false :: updates

let create ~read_only table ~thread =
  let t =
    {
      table;
      thread;
      read_only;
      locked = Array.make 4 0;
      n_locked = 0;
      copies = Hashtbl.create 8;
      creates = [];
      frees = [];
      snap_keys = Array.make 4 0;
      snap_versions = Array.make 4 0;
      n_snaps = 0;
      finished = false;
      publish_copy = (fun _ _ updates -> updates);
    }
  in
  t.publish_copy <- publish_copy t;
  t

let create_write table ~thread = create ~read_only:false table ~thread
let create_read table ~thread = create ~read_only:true table ~thread

(* Recycle a finished transaction in place: per-attempt state is dropped
   but the copies table keeps its buckets, so a pooled transaction's next
   attempt allocates nothing.  [Hashtbl.clear] (not [reset]) is the point:
   reset would shrink the bucket array back to its initial size. *)
let reinit t ~read_only ~thread =
  assert (t.finished || (t.n_locked = 0 && t.n_snaps = 0));
  t.thread <- thread;
  t.read_only <- read_only;
  t.n_locked <- 0;
  Hashtbl.clear t.copies;
  t.creates <- [];
  t.frees <- [];
  t.n_snaps <- 0;
  t.finished <- false

let is_read_only t = t.read_only
let thread t = t.thread

(* Room for one more key at [n] in [a], the array doubled when full. *)
let grow a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  end

(* Newest lock first. *)
let release_locks t =
  for i = t.n_locked - 1 downto 0 do
    let obj = Table.find t.table t.locked.(i) in
    if obj != Obj.dummy then Obj.unlock obj ~thread:t.thread
  done;
  t.n_locked <- 0

let abort t =
  if not t.finished then begin
    t.finished <- true;
    release_locks t;
    Hashtbl.clear t.copies
  end

let fail t reason =
  abort t;
  Error reason

let take_lock t obj =
  (* Already-locked check is O(1) on the object itself: local locks are
     strictly per-thread and released at commit/abort, so [lock_thread =
     this thread] can only mean this very transaction took it (and already
     recorded the key in [locked] for release). *)
  if obj.Obj.lock_thread = t.thread then Ok ()
  else if Obj.can_lock obj ~thread:t.thread then begin
    Obj.lock obj ~thread:t.thread;
    t.locked <- grow t.locked t.n_locked;
    t.locked.(t.n_locked) <- obj.Obj.key;
    t.n_locked <- t.n_locked + 1;
    Ok ()
  end
  else Error (Lock_conflict obj.Obj.key)

let rec took_lock t key i = i >= 0 && (t.locked.(i) = key || took_lock t key (i - 1))

let created_value t key =
  List.assoc_opt key t.creates

let open_read t key =
  assert (not t.finished);
  match created_value t key with
  | Some v -> Ok v
  | None ->
    let obj = Table.find t.table key in
    if obj == Obj.dummy then fail t (Not_replica key)
    else if t.read_only then begin
      (* A reader must not return a value with a pending reliable commit. *)
      if obj.Obj.t_state <> Types.T_valid then fail t (Invalidated key)
      else begin
        let n = t.n_snaps in
        t.snap_keys <- grow t.snap_keys n;
        t.snap_versions <- grow t.snap_versions n;
        t.snap_keys.(n) <- key;
        t.snap_versions.(n) <- obj.Obj.t_version;
        t.n_snaps <- n + 1;
        Ok obj.Obj.data
      end
    end
    else begin
      match take_lock t obj with
      | Error reason -> fail t reason
      | Ok () ->
        (* [find] with [Not_found], not [find_opt]: opening a key again
           boxes no [Some]. *)
        (match Hashtbl.find t.copies key with
        | copy -> Ok copy
        | exception Not_found -> Ok obj.Obj.data)
    end

let open_write t key =
  assert (not t.finished);
  assert (not t.read_only);
  match created_value t key with
  | Some v -> Ok v
  | None ->
    let obj = Table.find t.table key in
    if obj == Obj.dummy then fail t (Not_replica key)
    else
      match take_lock t obj with
      | Error reason -> fail t reason
      | Ok () ->
        (match Hashtbl.find t.copies key with
        | copy -> Ok copy
        | exception Not_found ->
          let copy = Bytes.copy obj.Obj.data in
          Hashtbl.replace t.copies key copy;
          Ok copy)

let put t key data =
  assert (not t.finished);
  assert (not t.read_only);
  if List.mem_assoc key t.creates then
    t.creates <- (key, data) :: List.remove_assoc key t.creates
  else begin
    assert (took_lock t key (t.n_locked - 1));
    Hashtbl.replace t.copies key data
  end

let create_obj t key data =
  assert (not t.finished);
  assert (not t.read_only);
  t.creates <- (key, data) :: t.creates

let free_obj t key =
  assert (not t.finished);
  assert (not t.read_only);
  if List.mem_assoc key t.creates then begin
    t.creates <- List.remove_assoc key t.creates;
    Ok ()
  end
  else begin
    let obj = Table.find t.table key in
    if obj == Obj.dummy then fail t (Not_replica key)
    else
      match take_lock t obj with
      | Error reason -> fail t reason
      | Ok () ->
        t.frees <- key :: t.frees;
        Ok ()
  end

let written t key =
  Hashtbl.mem t.copies key || List.mem_assoc key t.creates || List.mem key t.frees

(* Single validation pass over the snapshots from [i] down, newest first,
   that remembers WHICH snapshot failed: the abort reason names the
   newest invalidated key. *)
let rec validate t i =
  if i < 0 then begin
    t.finished <- true;
    Ok []
  end
  else begin
    let key = t.snap_keys.(i) in
    let obj = Table.find t.table key in
    if obj != Obj.dummy && obj.Obj.t_state = Types.T_valid
       && obj.Obj.t_version = t.snap_versions.(i)
    then validate t (i - 1)
    else fail t (Invalidated key)
  end

let commit_read_only t = validate t (t.n_snaps - 1)

(* Freed objects: bump version, mark freed; removed once replicated. *)
let rec publish_frees t updates = function
  | [] -> updates
  | key :: rest ->
    let obj = Table.get t.table key in
    publish_frees t (publish t obj obj.Obj.data ~freed:true :: updates) rest

(* Created objects: installed as owned, version 1, pending replication. *)
let rec install_creates t updates = function
  | [] -> updates
  | (key, data) :: rest ->
    let obj = Obj.create ~key ~role:Types.Owner ~version:1 data in
    obj.Obj.t_state <- Types.T_write;
    obj.Obj.pending_rc <- 1;
    obj.Obj.last_writer_thread <- t.thread;
    Table.install t.table obj;
    install_creates t ({ key; version = 1; data; freed = false } :: updates) rest

let commit_write t =
  let updates = Hashtbl.fold t.publish_copy t.copies [] in
  let updates = publish_frees t updates t.frees in
  let updates = install_creates t updates t.creates in
  release_locks t;
  t.finished <- true;
  Ok updates

let local_commit t =
  assert (not t.finished);
  if t.read_only then commit_read_only t else commit_write t
