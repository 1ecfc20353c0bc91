(* Hot-path note: [find] dominates simulator profiles (every read, write,
   validation and replicated apply goes through it), so small non-negative
   keys — the common case for every workload generator — live in a dense
   array indexed by key.  Negative or very large keys spill into a Hashtbl
   so the interface stays total. *)

type t = {
  node : Types.node_id;
  mutable dense : Obj.t option array; (* slot [k] holds the object with key k *)
  sparse : (Types.key, Obj.t) Hashtbl.t;
  mutable count : int;
}

(* Past this the dense array stops growing and keys spill to [sparse];
   bounds worst-case memory at 8 MiB of slots per node. *)
let max_dense = 1 lsl 20

let create ~node =
  { node; dense = Array.make 1024 None; sparse = Hashtbl.create 16; count = 0 }

let node t = t.node

let find t key =
  if key >= 0 && key < Array.length t.dense then t.dense.(key)
  else Hashtbl.find_opt t.sparse key

let mem t key =
  if key >= 0 && key < Array.length t.dense then
    match t.dense.(key) with Some _ -> true | None -> false
  else Hashtbl.mem t.sparse key

let get t key =
  match find t key with
  | Some o -> o
  | None -> raise Not_found

let grow t key =
  let cap = ref (Array.length t.dense) in
  while key >= !cap do
    cap := !cap * 2
  done;
  let dense = Array.make !cap None in
  Array.blit t.dense 0 dense 0 (Array.length t.dense);
  t.dense <- dense

let install t obj =
  let key = obj.Obj.key in
  if key >= 0 && key < max_dense then begin
    if key >= Array.length t.dense then grow t key;
    (match t.dense.(key) with None -> t.count <- t.count + 1 | Some _ -> ());
    t.dense.(key) <- Some obj
  end
  else begin
    if not (Hashtbl.mem t.sparse key) then t.count <- t.count + 1;
    Hashtbl.replace t.sparse key obj
  end

let remove t key =
  if key >= 0 && key < Array.length t.dense then begin
    match t.dense.(key) with
    | Some _ ->
      t.count <- t.count - 1;
      t.dense.(key) <- None
    | None -> ()
  end
  else if Hashtbl.mem t.sparse key then begin
    t.count <- t.count - 1;
    Hashtbl.remove t.sparse key
  end

let size t = t.count

(* Allocates no closure while the sparse part is empty, so a periodic scan
   with a preallocated [fn] costs no minor-heap words. *)
let iter t fn =
  let dense = t.dense in
  for k = 0 to Array.length dense - 1 do
    match dense.(k) with Some o -> fn o | None -> ()
  done;
  if Hashtbl.length t.sparse > 0 then Hashtbl.iter (fun _ o -> fn o) t.sparse

let keys t =
  let acc = Hashtbl.fold (fun k _ acc -> k :: acc) t.sparse [] in
  let acc = ref acc in
  for k = Array.length t.dense - 1 downto 0 do
    (match t.dense.(k) with Some _ -> acc := k :: !acc | None -> ())
  done;
  !acc
