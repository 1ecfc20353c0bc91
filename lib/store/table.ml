(* Hot-path note: [find] dominates simulator profiles (every read, write,
   validation and replicated apply goes through it), so objects live in a
   {!Dense_map}: common keys are a dense-array slot, no hashing, and a
   lookup returns the object itself, no [Some]. *)

type t = { node : Types.node_id; objs : Obj.t Dense_map.t }

let create ~node = { node; objs = Dense_map.create ~dummy:Obj.dummy }
let node t = t.node
let find t key = Dense_map.find t.objs key
let mem t key = Dense_map.mem t.objs key

let get t key =
  let obj = find t key in
  if obj == Obj.dummy then raise Not_found else obj

let install t obj = Dense_map.replace t.objs obj.Obj.key obj
let reserve t n = Dense_map.reserve t.objs n
let remove t key = Dense_map.remove t.objs key
let size t = Dense_map.size t.objs

(* Allocates no closure while no key has spilled, so a periodic scan with a
   preallocated [fn] costs no minor-heap words. *)
let iter t fn = Dense_map.iter t.objs fn
let clear t = Dense_map.clear t.objs

(* Values are shared: the store replaces an object's [data], it never
   writes into it. *)
let copy t =
  let c = create ~node:t.node in
  iter t (fun obj -> install c { obj with Obj.key = obj.Obj.key });
  c
