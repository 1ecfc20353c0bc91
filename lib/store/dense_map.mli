(** A mutable map keyed by object key, shared by every per-key structure a
    node keeps ({!Table}, the ownership directory).

    Small non-negative keys — the common case for every workload generator —
    live in a dense array indexed by key, so a lookup is a bounds check and
    a load: no hashing, no bucket cells, no resizes of a bucket array.
    Negative keys and keys [>= max_dense] spill into a [Hashtbl], so the
    interface stays total. *)

type 'a t

val max_dense : int
(** Keys in [\[0, max_dense)] are stored densely. *)

val create : unit -> 'a t

val create_sparse : unit -> 'a t
(** A map that keeps every key in the [Hashtbl]: its memory follows the
    bindings it holds, not the largest key it has held.  For maps that hold
    a handful of bindings over a wide key range. *)

val find : 'a t -> Types.key -> 'a option
val mem : 'a t -> Types.key -> bool

val replace : 'a t -> Types.key -> 'a -> unit
(** Bind the key, replacing any previous binding. *)

val remove : 'a t -> Types.key -> unit
val size : 'a t -> int

val iter : 'a t -> ('a -> unit) -> unit
(** Every binding once: dense keys in ascending order, then spilled keys
    in no particular order.  Allocates nothing while no key has spilled. *)

val clear : 'a t -> unit
(** Drop every binding and shrink back to the initial capacity. *)

val bindings : 'a t -> (Types.key * 'a) list
(** Every binding, in ascending key order. *)

val copy : ('a -> 'a) -> 'a t -> 'a t
(** An independent map holding the image of every binding. *)
