let new_order_weight = 0.45
let payment_weight = 0.43

(* The spec's remote probabilities and transaction shapes. *)
let remote_item_prob = 0.01
let items_per_order = 10
let remote_customer_prob = 0.15
let accesses_per_new_order = 23
let accesses_per_payment = 4

let remote_txn_fraction =
  let no_remote = 1.0 -. ((1.0 -. remote_item_prob) ** float_of_int items_per_order) in
  (new_order_weight *. no_remote) +. (payment_weight *. remote_customer_prob)

let remote_access_fraction =
  (* Remote accesses per New-Order: each of the ~10 stock lines is remote
     with probability 1%; per Payment: the customer row (15%). *)
  let no_remote_accesses = float_of_int items_per_order *. remote_item_prob in
  let pay_remote_accesses = remote_customer_prob in
  let weighted_remote =
    (new_order_weight *. no_remote_accesses) +. (payment_weight *. pay_remote_accesses)
  in
  let weighted_total =
    (new_order_weight *. float_of_int accesses_per_new_order)
    +. (payment_weight *. float_of_int accesses_per_payment)
    +. ((1.0 -. new_order_weight -. payment_weight) *. 5.0)
  in
  weighted_remote /. weighted_total
