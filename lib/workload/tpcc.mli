(** Analytical TPC-C locality model (§8 "Locality in workloads").

    TPC-C is analysed, not executed (the paper defers running it because
    Zeus lacks range queries; so do we — documented in DESIGN.md).  With
    warehouse-partitioned sharding only New-Order (1 % of item lines hit a
    remote warehouse) and Payment (15 % of customer look-ups are remote)
    can touch remote data.  Two metrics:
    - fraction of {e transactions} touching any remote object;
    - fraction of {e accesses} that are remote (the metric closest to the
      paper's reported 2.45 %, since an ownership request is per object).

    Both are fixed by the spec's constants: 10 order lines (1 % remote),
    15 % remote Payment customers, 23 accesses per New-Order and 4 per
    Payment. *)

val new_order_weight : float
val payment_weight : float

val remote_txn_fraction : float
val remote_access_fraction : float
