(** Slot-indexed window: a map from monotonically allocated int ids to
    values.

    The protocol cores key per-request state by ids that only ever grow —
    the commit core's pipeline slots, the ownership core's request seqs —
    and the ids they hold at any moment sit in a narrow band: the open
    slots of a pipeline, the R-INVs a follower stores until their R-VAL,
    the requests a node has in flight, the timers an agent has armed.  A
    window keeps that band in one power-of-two ring indexed by [id land
    (len - 1)], with the bounds [[low, high)] kept tight around the present
    ids and the ring doubling whenever the band outgrows it.  A lookup is a
    bounds test and one array read: no hashing, no comparison, no [Some].
    Absent cells hold the [dummy] given at creation, which {!find} returns
    for an absent id. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty window.  [dummy] marks absent cells and is compared
    physically ([==]): pass a value never stored, ideally a constant. *)

val length : 'a t -> int
(** Present slots. *)

val low : 'a t -> int
(** The lowest present slot; [high] when the window is empty. *)

val high : 'a t -> int
(** One past the highest present slot. *)

val find : 'a t -> int -> 'a
(** The value at a slot, or [dummy] when it is absent. *)

val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** Bind a slot (replacing any value), growing the ring if the band of
    present slots no longer fits.  The value must not be [dummy]. *)

val remove : 'a t -> int -> unit
(** Unbind a slot; absent slots are ignored. *)

val remove_below : 'a t -> int -> unit
(** Unbind every slot below the given one. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Visit the present slots in ascending order.  [f] may remove slots; the
    walk covers the bounds the window had when it started. *)

val clear : 'a t -> unit

val copy : ('a -> 'a) -> 'a t -> 'a t
(** An independent window holding the image of every present value. *)
