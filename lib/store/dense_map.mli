(** A mutable map keyed by object key, shared by every per-key structure a
    node keeps ({!Table}, the ownership directory).

    Small non-negative keys — the common case for every workload generator —
    live in a dense array indexed by key, so a lookup is a bounds check and
    a load: no hashing, no bucket cells, no resizes of a bucket array.
    Negative keys and keys [>= max_dense] spill into a [Hashtbl], so the
    interface stays total.

    Values are stored unboxed, as in {!Window}: an absent slot holds the
    [dummy] given at creation, and {!find} returns it for an absent key, so
    no lookup allocates.  Test a result with [!= dummy] (physically), and
    never write to the dummy: every miss returns that one value.  ['a] must
    not be [float], whose array cells are not physically comparable. *)

type 'a t

val max_dense : int
(** Keys in [\[0, max_dense)] are stored densely. *)

val create : dummy:'a -> 'a t
(** An empty map.  [dummy] marks absent slots and is compared physically
    ([==]): pass a value never stored, ideally a constant. *)

val create_sparse : dummy:'a -> 'a t
(** A map that keeps every key in the [Hashtbl]: its memory follows the
    bindings it holds, not the largest key it has held.  For maps that hold
    a handful of bindings over a wide key range. *)

val find : 'a t -> Types.key -> 'a
(** The key's value, or [dummy] when it is unbound.  Allocates nothing. *)

val mem : 'a t -> Types.key -> bool

val replace : 'a t -> Types.key -> 'a -> unit
(** Bind the key, replacing any previous binding.  The value must not be
    [dummy]. *)

val reserve : 'a t -> int -> unit
(** [reserve m n] sizes the dense array to hold keys [\[0, n)] (at most
    [max_dense], exactly, not rounded up), so binding them grows no array.
    A no-op when the array is already that large, and on a sparse map. *)

val remove : 'a t -> Types.key -> unit
(** Unbind the key; its slot drops the value, so the map keeps nothing
    removed alive. *)

val size : 'a t -> int

val iter : 'a t -> ('a -> unit) -> unit
(** Every binding once: dense keys in ascending order, then spilled keys
    in no particular order.  Allocates nothing while no key has spilled. *)

val clear : 'a t -> unit
(** Drop every binding and shrink back to the initial capacity. *)

val bindings : 'a t -> (Types.key * 'a) list
(** Every binding, in ascending key order. *)

val copy : ('a -> 'a) -> 'a t -> 'a t
(** An independent map holding the image of every binding, with the same
    dummy. *)
