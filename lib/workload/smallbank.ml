module Rng = Zeus_sim.Rng
module Value = Zeus_store.Value

type t = {
  accounts_per_node : int;
  nodes : int;
  remote_frac : float;
  local_reads : bool;
  rng : Rng.t;
}

let create ~accounts_per_node ~nodes ?(remote_frac = 0.0) ?(local_reads = true) rng =
  { accounts_per_node; nodes; remote_frac; local_reads; rng }

(* Account [a]'s two objects. *)
let checking_key _t a = 2 * a
let savings_key _t a = (2 * a) + 1
let total_keys t = 2 * t.accounts_per_node * t.nodes
let home_of_key t key = key / 2 / t.accounts_per_node
let initial_value = Value.padded [ 1000 ] ~size:64

let populate t cluster =
  Zeus_core.Cluster.populate_n cluster ~n:(total_keys t) ~owner_of:(home_of_key t)
    (fun _ -> initial_value)

(* Pick an account homed at [node]. *)
let local_account t node = (node * t.accounts_per_node) + Rng.int t.rng t.accounts_per_node

let other_node t home =
  if t.nodes = 1 then home
  else begin
    let n = Rng.int t.rng (t.nodes - 1) in
    if n >= home then n + 1 else n
  end

(* For a write transaction: with probability [remote_frac] the access
   pattern has drifted and the account lives on another node. *)
let account_for_write t home =
  if Rng.chance t.rng t.remote_frac then local_account t (other_node t home)
  else local_account t home

let account_for_read t home =
  if t.local_reads then local_account t home else account_for_write t home

let exec = 0.8

let gen t ~home =
  let p = float_of_int (Rng.bits53 t.rng) /. 0x1p53 in
  if p < 0.15 then begin
    (* Balance: read-only, both objects of one account. *)
    let a = account_for_read t home in
    Spec.read_txn ~exec_us:0.5 [ checking_key t a; savings_key t a ]
  end
  else if p < 0.30 then begin
    (* Amalgamate: zero out one account into another's checking. *)
    let src = account_for_write t home in
    let dst = local_account t home in
    Spec.write_txn ~exec_us:exec [ checking_key t src; savings_key t src; checking_key t dst ]
  end
  else if p < 0.45 then
    (* DepositChecking *)
    Spec.write_txn ~exec_us:exec [ checking_key t (account_for_write t home) ]
  else if p < 0.70 then begin
    (* SendPayment: checking of two accounts. *)
    let src = account_for_write t home in
    let dst = local_account t home in
    Spec.write_txn ~exec_us:exec [ checking_key t src; checking_key t dst ]
  end
  else if p < 0.85 then
    (* TransactSavings *)
    Spec.write_txn ~exec_us:exec [ savings_key t (account_for_write t home) ]
  else begin
    (* WriteCheck: read savings, write checking. *)
    let a = account_for_write t home in
    Spec.write_txn ~exec_us:exec ~reads:[ savings_key t a ] [ checking_key t a ]
  end

let table_summary = ("Smallbank", 3, 6, 6, 15)
