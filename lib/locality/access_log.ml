open Zeus_store

let half_life_us = 5_000.0
let capacity = 4_096

type entry = {
  ewma : float array;          (* one decayed rate per node *)
  mutable last : float;        (* time of the last decay application *)
}

type t = {
  nodes : int;
  entries : (Types.key, entry) Hashtbl.t;
}

let create ~nodes = { nodes; entries = Hashtbl.create 256 }

let decay_factor ~from_ ~to_ =
  if to_ <= from_ then 1.0
  else Float.exp (-.Float.log 2.0 *. (to_ -. from_) /. half_life_us)

let refresh t e ~now =
  let f = decay_factor ~from_:e.last ~to_:now in
  if f < 1.0 then begin
    for n = 0 to t.nodes - 1 do
      e.ewma.(n) <- e.ewma.(n) *. f
    done;
    e.last <- Float.max e.last now
  end

let entry_total e = Array.fold_left ( +. ) 0.0 e.ewma

(* Eviction: drop everything that has decayed to noise; if that frees
   nothing (all tracked keys genuinely warm), drop the single coldest.
   O(capacity), runs only when a new key would exceed the bound. *)
let evict t ~now =
  let doomed = ref [] in
  Hashtbl.iter
    (fun key e ->
      refresh t e ~now;
      if entry_total e < 0.05 then doomed := key :: !doomed)
    t.entries;
  List.iter (Hashtbl.remove t.entries) !doomed;
  if Hashtbl.length t.entries >= capacity then begin
    let coldest = ref None in
    Hashtbl.iter
      (fun key e ->
        let tot = entry_total e in
        match !coldest with
        | Some (_, best) when best <= tot -> ()
        | _ -> coldest := Some (key, tot))
      t.entries;
    match !coldest with Some (key, _) -> Hashtbl.remove t.entries key | None -> ()
  end

let record t ~key ~node ~now =
  match Hashtbl.find_opt t.entries key with
  | Some e ->
    refresh t e ~now;
    e.ewma.(node) <- e.ewma.(node) +. 1.0
  | None ->
    if Hashtbl.length t.entries >= capacity then evict t ~now;
    let e = { ewma = Array.make t.nodes 0.0; last = now } in
    e.ewma.(node) <- 1.0;
    Hashtbl.replace t.entries key e

let rate t ~key ~node ~now =
  match Hashtbl.find_opt t.entries key with
  | None -> 0.0
  | Some e -> e.ewma.(node) *. decay_factor ~from_:e.last ~to_:now

let rates t ~key ~now =
  match Hashtbl.find_opt t.entries key with
  | None -> Array.make t.nodes 0.0
  | Some e ->
    let f = decay_factor ~from_:e.last ~to_:now in
    Array.map (fun r -> r *. f) e.ewma

let total t ~key ~now =
  match Hashtbl.find_opt t.entries key with
  | None -> 0.0
  | Some e -> entry_total e *. decay_factor ~from_:e.last ~to_:now

let top_node t ~key ~now =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e ->
    let f = decay_factor ~from_:e.last ~to_:now in
    let best = ref None in
    for n = 0 to t.nodes - 1 do
      let r = e.ewma.(n) *. f in
      match !best with
      | Some (_, br) when br >= r -> ()
      | _ -> if r > 0.0 then best := Some (n, r)
    done;
    !best

let tracked t = Hashtbl.length t.entries
let iter t f = Hashtbl.iter (fun key _ -> f key) t.entries
