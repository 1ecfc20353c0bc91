module Rng = Zeus_sim.Rng
module Value = Zeus_store.Value

type t = {
  contestants : int;
  voters : int;
  nodes : int;
  rng : Rng.t;
}

let create ~contestants ~voters ~nodes rng = { contestants; voters; nodes; rng }

let contestant_key _t c = c
let voter_key t v = t.contestants + v
let total_keys t = t.contestants + t.voters

let home_of_key t key =
  if key < t.contestants then key * t.nodes / t.contestants
  else (key - t.contestants) * t.nodes / t.voters

let initial_value = Value.padded [ 0 ] ~size:32

let populate t cluster =
  Zeus_core.Cluster.populate_n cluster ~n:(total_keys t) ~owner_of:(home_of_key t)
    (fun _ -> initial_value)

let voters_per_node t = t.voters / t.nodes

(* The application-level load balancer routes votes for a contestant to
   the node that owns it, and further binds each contestant to one thread
   there to maximize local-commit concurrency (§3.1, §7). *)
let local_contestants t home =
  List.filter (fun c -> home_of_key t c = home) (List.init t.contestants (fun c -> c))

let gen t ~home ~thread ~threads =
  let voter = (home * voters_per_node t) + Rng.int t.rng (voters_per_node t) in
  let cands = List.filter (fun c -> c mod threads = thread) (local_contestants t home) in
  let cands = if cands = [] then local_contestants t home else cands in
  let contestant =
    match cands with [] -> 0 | l -> List.nth l (Rng.int t.rng (List.length l))
  in
  Spec.write_txn ~payload:32 ~exec_us:0.5
    [ contestant_key t contestant; voter_key t voter ]

let table_summary = ("Voter", 3, 9, 1, 0)
