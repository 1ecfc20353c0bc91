module Rng = Zeus_sim.Rng
module Cluster = Zeus_core.Cluster
module Node = Zeus_core.Node
module Value = Zeus_store.Value

let districts_per_wh = 10
let customers_per_district = 300
let items_per_warehouse = 1_000
let recent_cap = 20

type t = {
  warehouses : int;
  nodes : int;
  rng : Rng.t;
  mutable order_seq : int;
  mutable n_new_orders : int;
  mutable n_payments : int;
  mutable n_lines : int;
  mutable n_remote_lines : int;
}

let create ~warehouses ~nodes rng =
  {
    warehouses;
    nodes;
    rng;
    order_seq = 0;
    n_new_orders = 0;
    n_payments = 0;
    n_lines = 0;
    n_remote_lines = 0;
  }

let nodes t = t.nodes
let new_orders t = t.n_new_orders
let payments t = t.n_payments

let remote_line_fraction t =
  if t.n_lines = 0 then 0.0 else float_of_int t.n_remote_lines /. float_of_int t.n_lines

(* Warehouses are striped contiguously across nodes, rows co-located. *)
let home_of_warehouse t w = w * t.nodes / t.warehouses

let warehouses_of_node t home =
  List.filter (fun w -> home_of_warehouse t w = home) (List.init t.warehouses (fun w -> w))

(* ---- key layout (disjoint integer segments per table) ---- *)

let warehouse_key _t w = w
let district_key t w d = t.warehouses + (w * districts_per_wh) + d

let customer_key t w d c =
  t.warehouses
  + (t.warehouses * districts_per_wh)
  + ((((w * districts_per_wh) + d) * customers_per_district) + c)

let stock_key t w i =
  t.warehouses
  + (t.warehouses * districts_per_wh)
  + (t.warehouses * districts_per_wh * customers_per_district)
  + ((w * items_per_warehouse) + i)

let orders_base t =
  t.warehouses
  + (t.warehouses * districts_per_wh)
  + (t.warehouses * districts_per_wh * customers_per_district)
  + (t.warehouses * items_per_warehouse)

(* Order keys encode their home node so the baseline's static sharding can
   place them on the home warehouse's partition. *)
let fresh_order_key t ~home =
  let k = orders_base t + home + (t.nodes * t.order_seq) in
  t.order_seq <- t.order_seq + 1;
  k

let home_of_key t k =
  if k < t.warehouses then home_of_warehouse t k
  else if k < t.warehouses + (t.warehouses * districts_per_wh) then
    home_of_warehouse t ((k - t.warehouses) / districts_per_wh)
  else if
    k
    < t.warehouses
      + (t.warehouses * districts_per_wh)
      + (t.warehouses * districts_per_wh * customers_per_district)
  then begin
    let c = k - t.warehouses - (t.warehouses * districts_per_wh) in
    home_of_warehouse t (c / (districts_per_wh * customers_per_district))
  end
  else if k < orders_base t then begin
    let s =
      k - t.warehouses
      - (t.warehouses * districts_per_wh)
      - (t.warehouses * districts_per_wh * customers_per_district)
    in
    home_of_warehouse t (s / items_per_warehouse)
  end
  else (k - orders_base t) mod t.nodes

(* ---- district record: [next_o_id; ytd; recent orders...] ----
   The embedded recent-order list stands in for the order-id range scans
   of Delivery and Stock-Level. *)

let district_init = [ 1; 0 ]

let district_decode v =
  match Value.to_ints v with
  | next_o_id :: ytd :: recent -> (next_o_id, ytd, recent)
  | _ -> (1, 0, [])

let district_encode (next_o_id, ytd, recent) =
  let recent = if List.length recent > recent_cap then List.filteri (fun i _ -> i < recent_cap) recent else recent in
  Value.of_ints (next_o_id :: ytd :: recent)

(* ---- population ---- *)

let populate t cluster =
  for w = 0 to t.warehouses - 1 do
    let owner = home_of_warehouse t w in
    Cluster.populate cluster ~key:(warehouse_key t w) ~owner (Value.of_ints [ 0 ]);
    for d = 0 to districts_per_wh - 1 do
      Cluster.populate cluster ~key:(district_key t w d) ~owner
        (Value.of_ints district_init);
      for c = 0 to customers_per_district - 1 do
        Cluster.populate cluster ~key:(customer_key t w d c) ~owner
          (Value.of_ints [ 1000; 0 ])
      done
    done;
    for i = 0 to items_per_warehouse - 1 do
      Cluster.populate cluster ~key:(stock_key t w i) ~owner (Value.of_ints [ 100; 0 ])
    done
  done

(* ---- random pickers ---- *)

let local_warehouse t home =
  match warehouses_of_node t home with
  | [] -> 0
  | ws -> List.nth ws (Rng.int t.rng (List.length ws))

let other_warehouse t w =
  if t.warehouses = 1 then w
  else begin
    let x = Rng.int t.rng (t.warehouses - 1) in
    if x >= w then x + 1 else x
  end

let pick_lines t w =
  let cnt = 5 + Rng.int t.rng 11 in
  List.init cnt (fun _ ->
      let supply_w =
        if Rng.chance t.rng 0.01 then begin
          t.n_remote_lines <- t.n_remote_lines + 1;
          other_warehouse t w
        end
        else w
      in
      t.n_lines <- t.n_lines + 1;
      (supply_w, Rng.int t.rng items_per_warehouse))

(* ---- the five transactions as Zeus bodies ---- *)

let seq_iter items f k =
  let rec go = function
    | [] -> k ()
    | x :: rest -> f x (fun () -> go rest)
  in
  go items

let new_order t node ~thread k =
  t.n_new_orders <- t.n_new_orders + 1;
  let home = Node.id node in
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  let lines = pick_lines t w in
  let order_key = fresh_order_key t ~home in
  Node.run_write node ~thread ~exec_us:2.0
    ~body:(fun ctx commit ->
      Node.read_write ctx (district_key t w d)
        (fun v ->
          let next_o_id, ytd, recent = district_decode v in
          district_encode (next_o_id + 1, ytd, order_key :: recent))
        (fun _ ->
          seq_iter lines
            (fun (sw, i) k ->
              Node.read_write ctx (stock_key t sw i)
                (fun v ->
                  match Value.to_ints v with
                  | [ qty; ytd ] ->
                    let qty = if qty > 10 then qty - 1 else qty + 91 in
                    Value.of_ints [ qty; ytd + 1 ]
                  | _ -> v)
                (fun _ -> k ()))
            (fun () ->
              Node.insert ctx order_key
                (Value.of_ints (List.map (fun (sw, i) -> (sw * 1_000_000) + i) lines));
              commit ())))
    k

let payment t node ~thread k =
  t.n_payments <- t.n_payments + 1;
  let home = Node.id node in
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  (* 15% of payments are for a customer of a remote warehouse *)
  let cw = if Rng.chance t.rng 0.15 then other_warehouse t w else w in
  let c = Rng.int t.rng customers_per_district in
  let amount = 1 + Rng.int t.rng 50 in
  Node.run_write node ~thread ~exec_us:1.2
    ~body:(fun ctx commit ->
      Node.read_write ctx (warehouse_key t w)
        (fun v -> Value.of_ints [ Value.to_int v + amount ])
        (fun _ ->
          Node.read_write ctx (district_key t w d)
            (fun v ->
              let next_o_id, ytd, recent = district_decode v in
              district_encode (next_o_id, ytd + amount, recent))
            (fun _ ->
              Node.read_write ctx (customer_key t cw d c)
                (fun v ->
                  match Value.to_ints v with
                  | [ balance; ytd ] -> Value.of_ints [ balance - amount; ytd + amount ]
                  | _ -> v)
                (fun _ -> commit ()))))
    k

let order_status t node ~thread k =
  let home = Node.id node in
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  let c = Rng.int t.rng customers_per_district in
  Node.run_read node ~thread ~exec_us:0.8
    ~body:(fun ctx commit ->
      Node.read ctx (customer_key t w d c) (fun _ ->
          Node.read ctx (district_key t w d) (fun v ->
              let _, _, recent = district_decode v in
              match recent with
              | order :: _ -> Node.read ctx order (fun _ -> commit ())
              | [] -> commit ())))
    k

let delivery t node ~thread k =
  let home = Node.id node in
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  let c = Rng.int t.rng customers_per_district in
  Node.run_write node ~thread ~exec_us:1.5
    ~body:(fun ctx commit ->
      (* pop the oldest recent order (stands in for oldest-undelivered) *)
      let delivered = ref None in
      Node.read_write ctx (district_key t w d)
        (fun v ->
          let next_o_id, ytd, recent = district_decode v in
          match List.rev recent with
          | oldest :: rest_rev ->
            delivered := Some oldest;
            district_encode (next_o_id, ytd, List.rev rest_rev)
          | [] -> v)
        (fun _ ->
          let finish () =
            Node.read_write ctx (customer_key t w d c)
              (fun v ->
                match Value.to_ints v with
                | [ balance; ytd ] -> Value.of_ints [ balance + 10; ytd ]
                | _ -> v)
              (fun _ -> commit ())
          in
          match !delivered with
          | Some order -> Node.read_write ctx order (fun v -> v) (fun _ -> finish ())
          | None -> finish ()))
    k

let stock_level t node ~thread k =
  let home = Node.id node in
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  Node.run_read node ~thread ~exec_us:1.0
    ~body:(fun ctx commit ->
      Node.read ctx (district_key t w d) (fun _ ->
          let stocks =
            List.init 5 (fun _ -> stock_key t w (Rng.int t.rng items_per_warehouse))
          in
          seq_iter stocks
            (fun s k -> Node.read ctx s (fun _ -> k ()))
            (fun () -> commit ())))
    k

let issue t node ~thread k =
  let p = float_of_int (Rng.bits53 t.rng) /. 0x1p53 in
  if p < 0.45 then new_order t node ~thread k
  else if p < 0.88 then payment t node ~thread k
  else if p < 0.92 then order_status t node ~thread k
  else if p < 0.96 then delivery t node ~thread k
  else stock_level t node ~thread k

(* ---- baseline approximation (key sets only) ---- *)

let gen_spec t ~home =
  let w = local_warehouse t home in
  let d = Rng.int t.rng districts_per_wh in
  let p = float_of_int (Rng.bits53 t.rng) /. 0x1p53 in
  if p < 0.45 then begin
    let lines = pick_lines t w in
    t.n_new_orders <- t.n_new_orders + 1;
    Spec.write_txn ~payload:48 ~exec_us:2.0
      (district_key t w d
       :: fresh_order_key t ~home
       :: List.map (fun (sw, i) -> stock_key t sw i) lines)
  end
  else if p < 0.88 then begin
    t.n_payments <- t.n_payments + 1;
    let cw = if Rng.chance t.rng 0.15 then other_warehouse t w else w in
    let c = Rng.int t.rng customers_per_district in
    Spec.write_txn ~payload:32 ~exec_us:1.2
      [ warehouse_key t w; district_key t w d; customer_key t cw d c ]
  end
  else if p < 0.92 then
    Spec.read_txn ~exec_us:0.8
      [ customer_key t w d (Rng.int t.rng customers_per_district); district_key t w d ]
  else if p < 0.96 then
    Spec.write_txn ~payload:32 ~exec_us:1.5
      [ district_key t w d; customer_key t w d (Rng.int t.rng customers_per_district) ]
  else
    Spec.read_txn ~exec_us:1.0
      (district_key t w d
      :: List.init 5 (fun _ -> stock_key t w (Rng.int t.rng items_per_warehouse)))
