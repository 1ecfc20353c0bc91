type 'a t = {
  mutable dense : 'a array; (* slot [k] holds the binding of key k, or [dummy] *)
  sparse : (Types.key, 'a) Hashtbl.t;
  mutable count : int;
  limit : int;  (* keys in [0, limit) are dense: [max_dense], or 0 *)
  dummy : 'a;
}

(* Past this the dense array stops growing and keys spill to [sparse];
   bounds worst-case memory at 8 MiB of slots per map. *)
let max_dense = 1 lsl 20

(* Small, so that the model checker's per-state core copies stay cheap;
   growth doubles, so filling a key range copies fewer slots than it ends
   with. *)
let initial_capacity = 16

let create ~dummy =
  { dense = Array.make initial_capacity dummy; sparse = Hashtbl.create 16; count = 0;
    limit = max_dense; dummy }

let create_sparse ~dummy =
  { dense = [||]; sparse = Hashtbl.create 8; count = 0; limit = 0; dummy }

(* [Hashtbl.find], not [find_opt]: a hit boxes no [Some]. *)
let find_sparse t key = try Hashtbl.find t.sparse key with Not_found -> t.dummy

let find t key =
  if key >= 0 && key < Array.length t.dense then Array.unsafe_get t.dense key
  else if key >= 0 && key < t.limit then t.dummy
  else find_sparse t key

let mem t key = find t key != t.dummy

let resize t cap =
  let dense = Array.make cap t.dummy in
  Array.blit t.dense 0 dense 0 (Array.length t.dense);
  t.dense <- dense

let reserve t n =
  let n = min n t.limit in
  if n > Array.length t.dense then resize t n

let grow t key =
  let cap = ref (Array.length t.dense) in
  while key >= !cap do
    cap := !cap * 2
  done;
  resize t (min !cap t.limit)

let replace t key v =
  if key >= 0 && key < t.limit then begin
    if key >= Array.length t.dense then grow t key;
    if t.dense.(key) == t.dummy then t.count <- t.count + 1;
    t.dense.(key) <- v
  end
  else begin
    if not (Hashtbl.mem t.sparse key) then t.count <- t.count + 1;
    Hashtbl.replace t.sparse key v
  end

let remove t key =
  if key >= 0 && key < Array.length t.dense then begin
    if t.dense.(key) != t.dummy then begin
      t.count <- t.count - 1;
      t.dense.(key) <- t.dummy
    end
  end
  else if Hashtbl.mem t.sparse key then begin
    t.count <- t.count - 1;
    Hashtbl.remove t.sparse key
  end

let size t = t.count

let iter t fn =
  let dense = t.dense and dummy = t.dummy in
  for k = 0 to Array.length dense - 1 do
    let v = dense.(k) in
    if v != dummy then fn v
  done;
  if Hashtbl.length t.sparse > 0 then Hashtbl.iter (fun _ v -> fn v) t.sparse

let clear t =
  t.dense <- (if t.limit = 0 then [||] else Array.make initial_capacity t.dummy);
  Hashtbl.reset t.sparse;
  t.count <- 0

let bindings t =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) t.sparse;
  for k = Array.length t.dense - 1 downto 0 do
    let v = t.dense.(k) in
    if v != t.dummy then acc := (k, v) :: !acc
  done;
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let copy f t =
  let dummy = t.dummy in
  {
    t with
    dense = Array.map (fun v -> if v == dummy then dummy else f v) t.dense;
    sparse = Hashtbl.of_seq (Seq.map (fun (k, v) -> (k, f v)) (Hashtbl.to_seq t.sparse));
  }
