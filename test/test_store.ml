(* Tests for the object store and the local transactional-memory layer. *)

open Zeus_store

let tc = Helpers.tc
let check = Alcotest.check

(* ---------- value codec ---------- *)

let value_roundtrip () =
  check Alcotest.int "int" 42 (Value.to_int (Value.of_int 42));
  check Alcotest.int "negative" (-7) (Value.to_int (Value.of_int (-7)));
  check Alcotest.(list int) "ints" [ 1; 2; 3 ] (Value.to_ints (Value.of_ints [ 1; 2; 3 ]));
  check Alcotest.string "string" "hello" (Value.to_string (Value.of_string "hello"))

let value_padded () =
  let v = Value.padded [ 5; 6 ] ~size:100 in
  check Alcotest.int "size" 100 (Value.size v);
  check Alcotest.int "field decodable" 5 (Value.to_int v)

let value_padded_no_truncate () =
  let v = Value.padded [ 1; 2; 3 ] ~size:8 in
  check Alcotest.int "grows to fit" 24 (Value.size v)

(* ---------- ownership timestamps ---------- *)

let ots_ordering () =
  let a = { Ots.version = 1; node = 2 } in
  let b = { Ots.version = 1; node = 3 } in
  let c = { Ots.version = 2; node = 0 } in
  check Alcotest.bool "node breaks ties" true Ots.(b > a);
  check Alcotest.bool "version dominates" true Ots.(c > b);
  check Alcotest.bool "next is larger" true Ots.(Ots.next a ~node:0 > a);
  check Alcotest.bool "equal" true (Ots.equal a a)

let ots_uniqueness () =
  (* two drivers bumping the same base with distinct node ids never collide *)
  let base = Ots.zero in
  let a = Ots.next base ~node:0 and b = Ots.next base ~node:1 in
  check Alcotest.bool "distinct" false (Ots.equal a b);
  check Alcotest.bool "total order" true Ots.(b > a)

(* ---------- replicas ---------- *)

let replicas_promote () =
  let r = Replicas.v ~owner:0 ~readers:[ 1; 2 ] in
  let r' = Replicas.promote r ~new_owner:2 in
  check Alcotest.bool "new owner" true (Replicas.is_owner r' 2);
  check Alcotest.bool "old owner demoted" true (Replicas.is_reader r' 0);
  check Alcotest.bool "other reader kept" true (Replicas.is_reader r' 1);
  check Alcotest.int "count stable for reader-upgrade" 3 (Replicas.count r')

let replicas_promote_nonreplica () =
  let r = Replicas.v ~owner:0 ~readers:[ 1 ] in
  let r' = Replicas.promote r ~new_owner:3 in
  check Alcotest.int "count grows" 3 (Replicas.count r');
  check Alcotest.bool "owner" true (Replicas.is_owner r' 3)

let replicas_add_remove () =
  let r = Replicas.v ~owner:0 ~readers:[ 1 ] in
  let r = Replicas.add_reader r 2 in
  check Alcotest.int "added" 3 (Replicas.count r);
  let r = Replicas.add_reader r 2 in
  check Alcotest.int "idempotent" 3 (Replicas.count r);
  let r = Replicas.remove_reader r 1 in
  check Alcotest.(list int) "removed" [ 0; 2 ] (Replicas.all r)

let replicas_drop_dead () =
  let r = Replicas.v ~owner:0 ~readers:[ 1; 2 ] in
  let r = Replicas.drop_dead r ~live:(fun n -> n <> 0 && n <> 2) in
  check Alcotest.bool "owner dropped" true (r.Replicas.owner = None);
  check Alcotest.(list int) "reader kept" [ 1 ] r.Replicas.readers;
  (* Sets are shared between objects: an all-live set comes back as is. *)
  let r = Replicas.v ~owner:0 ~readers:[ 1; 2 ] in
  check Alcotest.bool "all live: same set" true (Replicas.drop_dead r ~live:(fun _ -> true) == r)

(* ---------- object local-ownership rules ---------- *)

let obj_lock_rules () =
  let o = Obj.create ~key:1 ~role:Types.Owner (Value.of_int 0) in
  check Alcotest.bool "free" true (Obj.can_lock o ~thread:0);
  Obj.lock o ~thread:0;
  check Alcotest.bool "same thread re-lock" true (Obj.can_lock o ~thread:0);
  check Alcotest.bool "other thread blocked" false (Obj.can_lock o ~thread:1);
  Obj.unlock o ~thread:1;
  check Alcotest.bool "unlock by non-holder ignored" false (Obj.can_lock o ~thread:1);
  Obj.unlock o ~thread:0;
  check Alcotest.bool "released" true (Obj.can_lock o ~thread:1)

let obj_pipeline_guard () =
  (* an object in thread 0's still-replicating pipeline cannot switch to
     thread 1 (§5.2), but thread 0 keeps using it *)
  let o = Obj.create ~key:1 ~role:Types.Owner (Value.of_int 0) in
  o.Obj.pending_rc <- 1;
  o.Obj.last_writer_thread <- 0;
  check Alcotest.bool "same pipeline ok" true (Obj.can_lock o ~thread:0);
  check Alcotest.bool "cross pipeline blocked" false (Obj.can_lock o ~thread:1);
  o.Obj.pending_rc <- 0;
  check Alcotest.bool "after replication ok" true (Obj.can_lock o ~thread:1)

(* ---------- table ---------- *)

let table_basics () =
  let t = Table.create ~node:0 in
  check Alcotest.bool "empty" false (Table.mem t 1);
  Table.install t (Obj.create ~key:1 ~role:Types.Owner (Value.of_int 5));
  check Alcotest.bool "mem" true (Table.mem t 1);
  check Alcotest.int "size" 1 (Table.size t);
  check Alcotest.int "value" 5 (Value.to_int (Table.get t 1).Obj.data);
  Table.remove t 1;
  check Alcotest.bool "removed" false (Table.mem t 1)

(* A copy owns its objects and its key set, dense and spilled keys alike. *)
let table_copy () =
  let keys = [ 3; -1; Dense_map.max_dense + 7 ] in
  let t = Table.create ~node:2 in
  List.iter (fun key -> Table.install t (Obj.create ~key ~role:Types.Reader Value.empty)) keys;
  let c = Table.copy t in
  List.iter (fun key -> (Table.get c key).Obj.t_version <- 9) keys;
  Table.remove c 3;
  Table.install c (Obj.create ~key:4 ~role:Types.Owner Value.empty);
  check Alcotest.int "copy's node" 2 (Table.node c);
  check Alcotest.(list int) "original versions" [ 0; 0; 0 ]
    (List.map (fun key -> (Table.get t key).Obj.t_version) keys);
  check Alcotest.(list bool) "original key set" [ true; false ] [ Table.mem t 3; Table.mem t 4 ]

(* ---------- dense map: model test against a Hashtbl ---------- *)

(* Both per-key structures built on [Dense_map] — the object table and the
   ownership directory — are driven through their own interfaces by one
   random operation sequence and compared with a [Hashtbl] after every
   step.  Keys come from every region of the map: small keys, keys that
   force the dense array to grow (up to just below [max_dense]), negative
   keys, and keys at or above [max_dense], which spill to the sparse
   part. *)

type map_op = Put of int * int | Del of int | Clear

let map_key =
  let open QCheck.Gen in
  frequency
    [
      (60, int_range 0 40);
      (20, int_range 0 5000);
      (1, map (fun d -> Dense_map.max_dense - d) (int_range 1 3));
      (20, int_range (-40) (-1));
      (20, map (fun d -> Dense_map.max_dense + d) (int_range 0 40));
    ]

let map_ops =
  let open QCheck.Gen in
  list_size (int_range 0 120)
    (frequency
       [
         (6, map2 (fun k v -> Put (k, v)) map_key (int_range 0 1000));
         (3, map (fun k -> Del k) map_key);
         (1, return Clear);
       ])

let print_map_op = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Clear -> "clear"

(* One structure seen through its interface; [find] returns the bound
   value and [iter] the key of every binding visited, in visit order.
   [replaces] says whether [put] on a bound key overwrites it. *)
type 'm map_impl = {
  create : unit -> 'm;
  put : 'm -> int -> int -> unit;
  del : 'm -> int -> unit;
  find : 'm -> int -> int option;
  mem : 'm -> int -> bool;
  size : 'm -> int;
  keys : 'm -> int list;
  clear : 'm -> unit;
  replaces : bool;
}

let table_impl =
  {
    create = (fun () -> Table.create ~node:0);
    put = (fun t k v -> Table.install t (Obj.create ~key:k ~role:Types.Owner (Value.of_int v)));
    del = Table.remove;
    find =
      (fun t k ->
        let o = Table.find t k in
        if o == Obj.dummy then None else Some (Value.to_int o.Obj.data));
    mem = Table.mem;
    size = Table.size;
    keys =
      (fun t ->
        let acc = ref [] in
        Table.iter t (fun o -> acc := o.Obj.key :: !acc);
        List.rev !acc);
    clear = Table.clear;
    replaces = true;
  }

let directory_impl =
  let module D = Zeus_ownership.Directory in
  {
    create = (fun () -> D.create ~node:0);
    put = (fun t k v -> D.register t k (Replicas.v ~owner:v ~readers:[]));
    del = D.forget;
    find =
      (fun t k ->
        let e = D.find t k in
        if e == D.dummy then None else e.D.replicas.Replicas.owner);
    mem = (fun t k -> D.find t k != D.dummy);
    size = D.size;
    keys =
      (fun t ->
        let acc = ref [] in
        D.iter t (fun e -> acc := e.D.key :: !acc);
        List.rev !acc);
    clear = D.clear;
    replaces = false (* [register] is idempotent *);
  }

let dense_map_model impl ops =
  let m = impl.create () and model = Hashtbl.create 64 in
  let agree k = impl.find m k = Hashtbl.find_opt model k && impl.mem m k = Hashtbl.mem model k in
  let steps_agree =
    List.for_all
      (fun op ->
        (match op with
        | Put (k, v) ->
          impl.put m k v;
          if impl.replaces || not (Hashtbl.mem model k) then Hashtbl.replace model k v
        | Del k ->
          impl.del m k;
          Hashtbl.remove model k
        | Clear ->
          impl.clear m;
          Hashtbl.reset model);
        (match op with Put (k, _) | Del k -> agree k | Clear -> true)
        && impl.size m = Hashtbl.length model)
      ops
  in
  (* Iteration visits every binding exactly once, dense keys ascending. *)
  let keys = impl.keys m in
  let dense = List.filter (fun k -> k >= 0 && k < Dense_map.max_dense) keys in
  steps_agree
  && List.length keys = Hashtbl.length model
  && List.for_all (Hashtbl.mem model) keys
  && List.sort_uniq compare keys = List.sort compare keys
  && dense = List.sort compare dense
  && Hashtbl.fold (fun k _ ok -> ok && agree k) model true

let dense_map_qcheck name impl =
  QCheck.Test.make ~name ~count:150
    (QCheck.make ~print:QCheck.Print.(list print_map_op) map_ops)
    (dense_map_model impl)

(* ---------- dense map: the dummy contract ---------- *)

(* Boxed values, so that physical comparison is meaningful. *)
type cell = { id : int }

let cell_dummy = { id = min_int }

let dense_maps =
  [
    ("dense", fun () -> Dense_map.create ~dummy:cell_dummy);
    ("sparse", fun () -> Dense_map.create_sparse ~dummy:cell_dummy);
  ]

(* Keys from every region: small, negative, and at or above [max_dense]. *)
let contract_keys = [ 0; 5; 17; 300; -1; -40; Dense_map.max_dense; Dense_map.max_dense + 9 ]
let removed_keys = [ 5; -1; Dense_map.max_dense + 9 ]
let kept_keys = List.filter (fun k -> not (List.mem k removed_keys)) contract_keys

let ids m =
  let acc = ref [] in
  Dense_map.iter m (fun c -> acc := c.id :: !acc);
  List.sort compare !acc

(* A miss returns the dummy; every walk and [mem] skips dummy slots. *)
let dense_map_dummy_contract () =
  List.iter
    (fun (label, create) ->
      let m = create () in
      let misses_hit_dummy what =
        List.iter
          (fun k ->
            check Alcotest.bool
              (Printf.sprintf "%s %s: miss on %d returns the dummy" label what k)
              true
              (Dense_map.find m k == cell_dummy && not (Dense_map.mem m k)))
      in
      misses_hit_dummy "empty" contract_keys;
      List.iter (fun k -> Dense_map.replace m k { id = k }) contract_keys;
      List.iter (Dense_map.remove m) removed_keys;
      misses_hit_dummy "removed" removed_keys;
      List.iter
        (fun k ->
          check Alcotest.int (Printf.sprintf "%s: find %d" label k) k (Dense_map.find m k).id)
        kept_keys;
      let sorted = List.sort compare kept_keys in
      check Alcotest.int (label ^ ": size") (List.length kept_keys) (Dense_map.size m);
      check Alcotest.(list int) (label ^ ": iter") sorted (ids m);
      check Alcotest.(list int) (label ^ ": bindings") sorted
        (List.map fst (Dense_map.bindings m));
      let c = Dense_map.copy (fun v -> { id = v.id }) m in
      check Alcotest.(list int) (label ^ ": copy's bindings") sorted
        (List.map fst (Dense_map.bindings c));
      List.iter
        (fun k ->
          check Alcotest.bool (Printf.sprintf "%s: copy's miss on %d" label k) true
            (Dense_map.find c k == cell_dummy))
        removed_keys;
      List.iter
        (fun k ->
          check Alcotest.bool (Printf.sprintf "%s: copy maps %d to a fresh value" label k)
            true
            (Dense_map.find c k != Dense_map.find m k && Dense_map.find c k != cell_dummy))
        kept_keys;
      Dense_map.clear m;
      misses_hit_dummy "cleared" contract_keys;
      check Alcotest.int (label ^ ": cleared size") 0 (Dense_map.size m);
      check Alcotest.(list int) (label ^ ": cleared iter") [] (ids m);
      check Alcotest.int (label ^ ": cleared bindings") 0 (List.length (Dense_map.bindings m));
      check Alcotest.(list int) (label ^ ": the copy outlives the clear") sorted (ids c))
    dense_maps

(* A removed value is not kept alive by its old slot. *)
let dense_map_remove_releases () =
  List.iter
    (fun (label, create) ->
      let m = create () in
      let weak = Weak.create (List.length contract_keys) in
      List.iteri
        (fun i k ->
          let v = { id = k } in
          Weak.set weak i (Some v);
          Dense_map.replace m k v)
        contract_keys;
      List.iter (Dense_map.remove m) contract_keys;
      Gc.full_major ();
      List.iteri
        (fun i k ->
          check Alcotest.bool (Printf.sprintf "%s: removed value of %d collected" label k)
            false (Weak.check weak i))
        contract_keys;
      ignore (Sys.opaque_identity m))
    dense_maps

(* Words allocated by [f ()], direct major allocations included. *)
let allocated f =
  let words = Zeus_experiments.Perf.allocated_words in
  let before = words () in
  f ();
  words () -. before

(* [reserve n] sizes the slot array once: filling [\[0, n)] then allocates
   no array, where filling an unreserved map grows one by doubling.  A
   reservation past [max_dense] stops there. *)
let dense_map_reserve () =
  let n = 50_000 in
  let cells = Array.init n (fun id -> { id }) in
  let fill m = Array.iter (fun c -> Dense_map.replace m c.id c) cells in
  let grown = Dense_map.create ~dummy:cell_dummy in
  let growth = allocated (fun () -> fill grown) in
  if growth < float_of_int n then
    Alcotest.failf "control: filling an unreserved map allocated only %.0f words" growth;
  let m = Dense_map.create ~dummy:cell_dummy in
  let reserve = allocated (fun () -> Dense_map.reserve m n) in
  if reserve > float_of_int (n + 64) then
    Alcotest.failf "reserve %d allocated %.0f words" n reserve;
  let after = allocated (fun () -> fill m) in
  if after > 64.0 then Alcotest.failf "filling a reserved map allocated %.0f words" after;
  check Alcotest.int "all bound" n (Dense_map.size m);
  let capped = Dense_map.create ~dummy:cell_dummy in
  let words = allocated (fun () -> Dense_map.reserve capped (2 * Dense_map.max_dense)) in
  if words > float_of_int (Dense_map.max_dense + 64) then
    Alcotest.failf "reserve past max_dense allocated %.0f words" words;
  let sparse = Dense_map.create_sparse ~dummy:cell_dummy in
  let words = allocated (fun () -> Dense_map.reserve sparse n) in
  if words > 64.0 then Alcotest.failf "reserve on a sparse map allocated %.0f words" words

(* ---------- transactions (local layer) ---------- *)

let fresh_table () =
  let t = Table.create ~node:0 in
  List.iter
    (fun k -> Table.install t (Obj.create ~key:k ~role:Types.Owner ~version:1 (Value.of_int (10 * k))))
    [ 1; 2; 3 ];
  t

let txn_commit_publishes () =
  let t = fresh_table () in
  let txn = Txn.create_write t ~thread:0 in
  (match Txn.open_write txn 1 with Ok _ -> () | Error _ -> Alcotest.fail "open");
  Txn.put txn 1 (Value.of_int 99);
  (match Txn.local_commit txn with
  | Ok [ u ] ->
    check Alcotest.int "version bumped" 2 u.Txn.version;
    check Alcotest.int "published" 99 (Value.to_int (Table.get t 1).Obj.data);
    check Alcotest.bool "t_state write" true ((Table.get t 1).Obj.t_state = Types.T_write);
    check Alcotest.int "pending_rc" 1 (Table.get t 1).Obj.pending_rc
  | Ok _ -> Alcotest.fail "expected one update"
  | Error _ -> Alcotest.fail "commit failed")

let txn_private_copies_isolated () =
  let t = fresh_table () in
  let txn = Txn.create_write t ~thread:0 in
  (match Txn.open_write txn 1 with Ok _ -> () | Error _ -> Alcotest.fail "open");
  Txn.put txn 1 (Value.of_int 99);
  (* The table still shows the old value until commit (opacity). *)
  check Alcotest.int "not yet visible" 10 (Value.to_int (Table.get t 1).Obj.data);
  Txn.abort txn;
  check Alcotest.int "abort discards" 10 (Value.to_int (Table.get t 1).Obj.data);
  check Alcotest.bool "lock released" true (Obj.can_lock (Table.get t 1) ~thread:1)

let txn_lock_conflict () =
  let t = fresh_table () in
  let t1 = Txn.create_write t ~thread:0 in
  let t2 = Txn.create_write t ~thread:1 in
  (match Txn.open_write t1 1 with Ok _ -> () | Error _ -> Alcotest.fail "t1 open");
  (match Txn.open_write t2 1 with
  | Error (Txn.Lock_conflict 1) -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected lock conflict");
  (* t2 is aborted; t1 proceeds *)
  match Txn.local_commit t1 with Ok _ -> () | Error _ -> Alcotest.fail "t1 commit"

let txn_read_own_writes () =
  let t = fresh_table () in
  let txn = Txn.create_write t ~thread:0 in
  (match Txn.open_write txn 1 with Ok _ -> () | Error _ -> Alcotest.fail "open");
  Txn.put txn 1 (Value.of_int 77);
  (match Txn.open_read txn 1 with
  | Ok v -> check Alcotest.int "sees own write" 77 (Value.to_int v)
  | Error _ -> Alcotest.fail "read");
  Txn.abort txn

let txn_create_and_free () =
  let t = fresh_table () in
  let txn = Txn.create_write t ~thread:0 in
  Txn.create_obj txn 9 (Value.of_int 900);
  (match Txn.open_read txn 9 with
  | Ok v -> check Alcotest.int "created visible in txn" 900 (Value.to_int v)
  | Error _ -> Alcotest.fail "read created");
  (match Txn.free_obj txn 1 with Ok () -> () | Error _ -> Alcotest.fail "free");
  (match Txn.local_commit txn with
  | Ok updates ->
    check Alcotest.int "two updates" 2 (List.length updates);
    check Alcotest.bool "created installed" true (Table.mem t 9);
    let freed = List.find (fun u -> u.Txn.key = 1) updates in
    check Alcotest.bool "freed flagged" true freed.Txn.freed
  | Error _ -> Alcotest.fail "commit")

let txn_ro_snapshot_validates () =
  let t = fresh_table () in
  let ro = Txn.create_read t ~thread:5 in
  (match Txn.open_read ro 1 with Ok _ -> () | Error _ -> Alcotest.fail "ro read");
  (match Txn.local_commit ro with Ok [] -> () | _ -> Alcotest.fail "ro commit")

let txn_ro_aborts_on_version_change () =
  let t = fresh_table () in
  let ro = Txn.create_read t ~thread:5 in
  (match Txn.open_read ro 1 with Ok _ -> () | Error _ -> Alcotest.fail "ro read");
  (* concurrent writer bumps the version before validation *)
  let w = Txn.create_write t ~thread:0 in
  (match Txn.open_write w 1 with Ok _ -> () | Error _ -> Alcotest.fail "w open");
  Txn.put w 1 (Value.of_int 1);
  (match Txn.local_commit w with Ok _ -> () | Error _ -> Alcotest.fail "w commit");
  match Txn.local_commit ro with
  | Error (Txn.Invalidated _) -> ()
  | _ -> Alcotest.fail "expected invalidation abort"

let txn_ro_aborts_on_invalid_state () =
  let t = fresh_table () in
  (Table.get t 2).Obj.t_state <- Types.T_invalid;
  let ro = Txn.create_read t ~thread:5 in
  match Txn.open_read ro 2 with
  | Error (Txn.Invalidated 2) -> ()
  | _ -> Alcotest.fail "reader must not return an invalidated object"

(* Snapshots are validated newest first, so a failed validation names the
   newest invalidated key; six snapshots outgrow the transaction's first
   snapshot arrays. *)
let txn_ro_names_newest_invalid () =
  let t = Table.create ~node:0 in
  let keys = [ 1; 2; 3; 4; 5; 6 ] in
  List.iter
    (fun k -> Table.install t (Obj.create ~key:k ~role:Types.Owner ~version:1 (Value.of_int k)))
    keys;
  let ro = Txn.create_read t ~thread:5 in
  let read_all () =
    List.iter
      (fun k -> match Txn.open_read ro k with Ok _ -> () | Error _ -> Alcotest.fail "ro read")
      keys
  in
  read_all ();
  List.iter (fun k -> (Table.get t k).Obj.t_version <- 2) [ 2; 5 ];
  (match Txn.local_commit ro with
  | Error (Txn.Invalidated 5) -> ()
  | Error r -> Alcotest.failf "expected invalidated(#5), got %a" Txn.pp_abort r
  | Ok _ -> Alcotest.fail "stale snapshots validated");
  Txn.reinit ro ~read_only:true ~thread:5;
  read_all ();
  match Txn.local_commit ro with Ok [] -> () | _ -> Alcotest.fail "fresh snapshots rejected"

let txn_not_replica () =
  let t = fresh_table () in
  let ro = Txn.create_read t ~thread:0 in
  match Txn.open_read ro 42 with
  | Error (Txn.Not_replica 42) -> ()
  | _ -> Alcotest.fail "expected not-replica"

let txn_multi_write_single_version_bump () =
  let t = fresh_table () in
  let txn = Txn.create_write t ~thread:0 in
  (match Txn.open_write txn 1 with Ok _ -> () | Error _ -> Alcotest.fail "open");
  Txn.put txn 1 (Value.of_int 1);
  Txn.put txn 1 (Value.of_int 2);
  Txn.put txn 1 (Value.of_int 3);
  match Txn.local_commit txn with
  | Ok [ u ] ->
    check Alcotest.int "one bump" 2 u.Txn.version;
    check Alcotest.int "last value" 3 (Value.to_int (Table.get t 1).Obj.data)
  | _ -> Alcotest.fail "commit"

(* ---------- outbox: the effect buffer as a stack ---------- *)

(* One input as the agents interpret it: note the mark, emit the input's
   effects, walk the slice in order, truncate back to the mark.  [exec]
   may interpret another input mid-walk, as a continuation feeding the
   same core does. *)
let interpret b ~emit ~exec =
  let mark = Outbox.length b in
  emit ();
  let stop = Outbox.length b in
  for i = mark to stop - 1 do
    exec (Outbox.get b i)
  done;
  Outbox.truncate b mark

let emit_all b prefix n () =
  for i = 0 to n - 1 do
    Outbox.emit b (Printf.sprintf "%s%d" prefix i)
  done

let names prefix n = List.init n (Printf.sprintf "%s%d" prefix)

(* The nested input's 20 effects outgrow the 16-cell buffer while the
   outer walk is at its fourth effect: the outer slice must survive the
   growth and the nested truncation, and the walk must resume after it. *)
(* Buffers of immutable values: no kind is pooled, and listing shares. *)
let value_outbox ~dummy = Outbox.create ~dummy ~copy:Fun.id ~kinds:0 ~kind:(fun _ -> -1)

let outbox_nested_walk () =
  let b = value_outbox ~dummy:"" in
  let seen = ref [] in
  let rec exec e =
    seen := e :: !seen;
    if e = "o3" then begin
      interpret b ~emit:(emit_all b "n" 20) ~exec;
      check Alcotest.int "outer slice length after the nested input" 10 (Outbox.length b);
      check Alcotest.(list string) "outer slice intact" (names "o" 10) (Outbox.to_list b ~from:0)
    end
  in
  interpret b ~emit:(emit_all b "o" 10) ~exec;
  check Alcotest.(list string) "emission order, the nested input in place"
    (names "o" 4 @ names "n" 20 @ List.filteri (fun i _ -> i >= 4) (names "o" 10))
    (List.rev !seen);
  check Alcotest.int "empty after the walk" 0 (Outbox.length b);
  Alcotest.check_raises "no cell readable past the length" (Invalid_argument "Outbox.get")
    (fun () -> ignore (Outbox.get b 0))

(* Truncated and taken cells of no pooled kind hold the dummy: the
   effects they held are collected while the buffer itself stays live. *)
let outbox_releases_cells () =
  let b = value_outbox ~dummy:Bytes.empty in
  let kept = Bytes.make 8 'k' in
  Outbox.emit b kept;
  let w = Weak.create 3 in
  let emit_fresh slot =
    let e = Bytes.make 64 'x' in
    Weak.set w slot (Some e);
    Outbox.emit b e
  in
  emit_fresh 0;
  emit_fresh 1;
  Outbox.truncate b 1;
  emit_fresh 2;
  Outbox.truncate b 1;
  Gc.full_major ();
  for slot = 0 to 2 do
    check Alcotest.bool (Printf.sprintf "truncated effect %d collected" slot) false
      (Weak.check w slot)
  done;
  check Alcotest.int "one effect below the mark" 1 (Outbox.length b);
  check Alcotest.bool "it stays" true (Outbox.get b 0 == kept);
  emit_fresh 0;
  ignore (Sys.opaque_identity (Outbox.take b));
  Gc.full_major ();
  check Alcotest.bool "taken effect collected" false (Weak.check w 0);
  Outbox.emit b kept;
  check Alcotest.int "the buffer is reused" 1 (Outbox.length b)

(* Cells of two pooled kinds: a truncated cell comes back to an emitter
   of its own kind only, last released first; the list views hand out
   copies, which keep their fields while the cells are overwritten. *)
type pooled = { kind : int; mutable v : int }

let no_cell = { kind = -1; v = 0 }

let outbox_reuses_cells () =
  let b = Outbox.create ~dummy:no_cell ~copy:(fun c -> { c with v = c.v }) ~kinds:2 ~kind:(fun c -> c.kind) in
  let emit kind v =
    let c = Outbox.reuse b kind in
    let c = if c == no_cell then { kind; v } else c in
    c.v <- v;
    Outbox.emit b c
  in
  emit 0 1;
  emit 1 2;
  emit 0 3;
  let first = [ Outbox.get b 0; Outbox.get b 1; Outbox.get b 2 ] in
  let listed = Outbox.to_list b ~from:0 in
  List.iter2
    (fun c l -> check Alcotest.bool "a listed effect is a copy" false (c == l))
    first listed;
  Outbox.truncate b 0;
  let cell i = List.nth first i in
  emit 0 10;
  emit 1 20;
  emit 0 30;
  emit 0 40;
  let held = List.init 4 (Outbox.get b) in
  check Alcotest.bool "kind 0: last released first" true
    (List.nth held 0 == cell 2 && List.nth held 2 == cell 0);
  check Alcotest.bool "kind 1: its own cell" true (List.nth held 1 == cell 1);
  check Alcotest.bool "a new cell once the pool is empty" false (List.memq (List.nth held 3) first);
  check Alcotest.(list int) "the cells were overwritten" [ 10; 20; 30; 40 ]
    (List.map (fun c -> c.v) held);
  check Alcotest.(list int) "the listed copies were not" [ 1; 2; 3 ]
    (List.map (fun c -> c.v) listed)

let suite =
  [
    tc "value: roundtrip codecs" value_roundtrip;
    tc "value: padded" value_padded;
    tc "value: padded never truncates" value_padded_no_truncate;
    tc "ots: lexicographic order" ots_ordering;
    tc "ots: driver timestamps unique" ots_uniqueness;
    tc "replicas: promote demotes old owner" replicas_promote;
    tc "replicas: promote of non-replica grows set" replicas_promote_nonreplica;
    tc "replicas: add/remove readers" replicas_add_remove;
    tc "replicas: drop dead nodes" replicas_drop_dead;
    tc "obj: thread locking rules" obj_lock_rules;
    tc "obj: pipeline switching guard (§5.2)" obj_pipeline_guard;
    tc "table: basics" table_basics;
    tc "table: a copy owns its objects" table_copy;
    QCheck_alcotest.to_alcotest
      (dense_map_qcheck "dense map: Table agrees with a Hashtbl" table_impl);
    QCheck_alcotest.to_alcotest
      (dense_map_qcheck "dense map: Directory agrees with a Hashtbl" directory_impl);
    tc "dense map: a miss returns the dummy, walks skip it" dense_map_dummy_contract;
    tc "dense map: a removed value is released" dense_map_remove_releases;
    tc "dense map: reserve sizes the slot array once" dense_map_reserve;
    tc "txn: commit publishes atomically" txn_commit_publishes;
    tc "txn: private copies give opacity" txn_private_copies_isolated;
    tc "txn: lock conflicts abort" txn_lock_conflict;
    tc "txn: reads own writes" txn_read_own_writes;
    tc "txn: create and free objects" txn_create_and_free;
    tc "txn: read-only snapshot validates" txn_ro_snapshot_validates;
    tc "txn: read-only aborts on version change" txn_ro_aborts_on_version_change;
    tc "txn: read-only refuses invalidated object" txn_ro_aborts_on_invalid_state;
    tc "txn: read-only validation names the newest invalid key" txn_ro_names_newest_invalid;
    tc "txn: non-replica read fails" txn_not_replica;
    tc "txn: one version bump per txn" txn_multi_write_single_version_bump;
    tc "outbox: a nested input's slice leaves the outer one intact" outbox_nested_walk;
    tc "outbox: truncated and taken cells hold the dummy" outbox_releases_cells;
    tc "outbox: released cells are reused by kind, list views copy" outbox_reuses_cells;
  ]
