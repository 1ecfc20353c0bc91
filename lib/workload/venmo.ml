module Rng = Zeus_sim.Rng

let users = 100_000
let community_size = 30
let inter_community = 0.013

type t = { nodes : int; rng : Rng.t }

let create ~nodes rng = { nodes; rng }
let community_of u = u / community_size

(* Whole communities are placed on nodes (the locality-preserving sharding
   of §2.2). *)
let node_of_user t u = community_of u mod t.nodes

let gen_pair t =
  let payer = Rng.int t.rng users in
  let payee =
    if Rng.chance t.rng inter_community then Rng.int t.rng users
    else begin
      let base = community_of payer * community_size in
      base + Rng.int t.rng (min community_size (users - base))
    end
  in
  let payee = if payee = payer then (payee + 1) mod users else payee in
  (payer, payee)

let remote_fraction ?(samples = 200_000) t =
  let remote = ref 0 in
  for _ = 1 to samples do
    let a, b = gen_pair t in
    if node_of_user t a <> node_of_user t b then incr remote
  done;
  float_of_int !remote /. float_of_int samples
