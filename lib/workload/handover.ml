module Rng = Zeus_sim.Rng
module Value = Zeus_store.Value

type t = {
  users_per_node : int;
  stations_per_node : int;
  nodes : int;
  handover_frac : float;
  remote_handover_frac : float;
  rng : Rng.t;
  stash : Spec.t option array array;
      (* per node, per thread: a handover's second transaction, issued by
         the thread's next [issue]; rows are sized on first use *)
}

let create ~users_per_node ~stations_per_node ~nodes ~handover_frac
    ~remote_handover_frac rng =
  {
    users_per_node;
    stations_per_node;
    nodes;
    handover_frac;
    remote_handover_frac;
    rng;
    stash = Array.make nodes [||];
  }

let user_key _t u = u
let station_key t b = (t.users_per_node * t.nodes) + b
let total_keys t = (t.users_per_node + t.stations_per_node) * t.nodes

let home_of_key t key =
  let users = t.users_per_node * t.nodes in
  if key < users then key / t.users_per_node
  else (key - users) / t.stations_per_node

let user_context = Value.padded [ 0 ] ~size:400
let station_context = Value.padded [ 0 ] ~size:256
let is_user_key t key = key < t.users_per_node * t.nodes

let populate t cluster =
  Zeus_core.Cluster.populate_n cluster ~n:(total_keys t) ~owner_of:(home_of_key t)
    (fun k -> if is_user_key t k then user_context else station_context)

(* Station contexts are written by every operation, so the load balancer
   binds each station to one thread of its node (§7). *)
let local_station t home thread threads =
  let base = home * t.stations_per_node in
  let mine =
    let rec collect i acc =
      if i >= t.stations_per_node then acc
      else collect (i + 1) (if i mod threads = thread then i :: acc else acc)
    in
    collect 0 []
  in
  match mine with
  | [] -> base + Rng.int t.rng t.stations_per_node
  | l -> base + List.nth l (Rng.int t.rng (List.length l))

let local_user t home = (home * t.users_per_node) + Rng.int t.rng t.users_per_node

let neighbor t home = if t.nodes = 1 then home else (home + 1) mod t.nodes

let exec = 1.5 (* parsing + 3GPP message handling per transaction, µs *)

let gen t ~home ~thread ~threads =
  let p = Rng.float t.rng 1.0 in
  if p < t.handover_frac then begin
    let remote = Rng.chance t.rng t.remote_handover_frac in
    if remote then begin
      (* Remote handover seen from the new node: the start transaction ran
         on the neighbouring node (counted there); the end transaction
         acquires the incoming user's context. *)
      let user = local_user t (neighbor t home) in
      let new_bs = local_station t home thread threads in
      let t1 =
        Spec.write_txn ~payload:400 ~exec_us:exec
          [ user_key t user; station_key t new_bs ]
      in
      (t1, None)
    end
    else begin
      (* Local handover: both transactions on this node. *)
      let user = local_user t home in
      let old_bs = local_station t home thread threads in
      let new_bs = local_station t home thread threads in
      let t1 =
        Spec.write_txn ~payload:400 ~exec_us:exec
          [ user_key t user; station_key t old_bs ]
      in
      let t2 =
        Spec.write_txn ~payload:400 ~exec_us:exec
          [ user_key t user; station_key t new_bs ]
      in
      (t1, Some t2)
    end
  end
  else begin
    (* Service request or release: user + its current station, local. *)
    let user = local_user t home in
    let bs = local_station t home thread threads in
    ( Spec.write_txn ~payload:400 ~exec_us:exec [ user_key t user; station_key t bs ],
      None )
  end

(* A handover is two transactions; the stash holds the second one so each
   call still runs exactly one transaction. *)
let issue t node ~thread k =
  let home = Zeus_core.Node.id node in
  if Array.length t.stash.(home) = 0 then
    t.stash.(home) <-
      Array.make (Zeus_core.Node.config node).Zeus_core.Config.app_threads None;
  let row = t.stash.(home) in
  let spec =
    match row.(thread) with
    | Some s ->
      row.(thread) <- None;
      s
    | None ->
      let s1, s2 = gen t ~home ~thread ~threads:(Array.length row) in
      row.(thread) <- s2;
      s1
  in
  Spec.run_on_zeus node ~thread spec k

let table_summary = ("Handovers", 5, 36, 4, 0)
