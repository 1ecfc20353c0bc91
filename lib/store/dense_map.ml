type 'a t = {
  mutable dense : 'a option array; (* slot [k] holds the binding of key k *)
  sparse : (Types.key, 'a) Hashtbl.t;
  mutable count : int;
  limit : int;  (* keys in [0, limit) are dense: [max_dense], or 0 *)
}

(* Past this the dense array stops growing and keys spill to [sparse];
   bounds worst-case memory at 8 MiB of slots per map. *)
let max_dense = 1 lsl 20

(* Small, so that the model checker's per-state core copies stay cheap;
   growth doubles, so filling a key range copies fewer slots than it ends
   with. *)
let initial_capacity = 16

let create () =
  { dense = Array.make initial_capacity None; sparse = Hashtbl.create 16; count = 0;
    limit = max_dense }

let create_sparse () = { dense = [||]; sparse = Hashtbl.create 8; count = 0; limit = 0 }

let find t key =
  if key >= 0 && key < Array.length t.dense then t.dense.(key)
  else Hashtbl.find_opt t.sparse key

let mem t key =
  if key >= 0 && key < Array.length t.dense then
    match t.dense.(key) with Some _ -> true | None -> false
  else Hashtbl.mem t.sparse key

let grow t key =
  let cap = ref (Array.length t.dense) in
  while key >= !cap do
    cap := !cap * 2
  done;
  let dense = Array.make !cap None in
  Array.blit t.dense 0 dense 0 (Array.length t.dense);
  t.dense <- dense

let replace t key v =
  if key >= 0 && key < t.limit then begin
    if key >= Array.length t.dense then grow t key;
    (match t.dense.(key) with None -> t.count <- t.count + 1 | Some _ -> ());
    t.dense.(key) <- Some v
  end
  else begin
    if not (Hashtbl.mem t.sparse key) then t.count <- t.count + 1;
    Hashtbl.replace t.sparse key v
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

let iter t fn =
  let dense = t.dense in
  for k = 0 to Array.length dense - 1 do
    match dense.(k) with Some v -> fn v | None -> ()
  done;
  if Hashtbl.length t.sparse > 0 then Hashtbl.iter (fun _ v -> fn v) t.sparse

let clear t =
  t.dense <- (if t.limit = 0 then [||] else Array.make initial_capacity None);
  Hashtbl.reset t.sparse;
  t.count <- 0

let bindings t =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) t.sparse;
  for k = Array.length t.dense - 1 downto 0 do
    match t.dense.(k) with Some v -> acc := (k, v) :: !acc | None -> ()
  done;
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let copy f t =
  {
    dense = Array.map (function Some v -> Some (f v) | None -> None) t.dense;
    sparse = Hashtbl.of_seq (Seq.map (fun (k, v) -> (k, f v)) (Hashtbl.to_seq t.sparse));
    count = t.count;
    limit = t.limit;
  }
