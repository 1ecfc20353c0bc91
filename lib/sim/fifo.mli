(** Array-ring FIFO queue for the simulator's long-lived wait queues.

    [Stdlib.Queue] links its cells, and a popped cell keeps pointing at its
    successor: once the queue's tail cell has been promoted, every minor
    collection copies all cells pushed since the previous one — and the
    jobs they carry — into the major heap, even the ones already served.
    This ring stores elements in one power-of-two array that doubles when
    full and overwrites each popped slot with the [dummy] given at
    creation, so a minor collection promotes only the elements still
    queued (DESIGN.md §12, "no promotion cascades"). *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue.  [dummy] fills every unused slot; pass a constant (a
    static closure, a constant constructor) so an empty slot holds no
    pointer into the minor heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. *)

val pop : 'a t -> 'a
(** Remove and return the head.  @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Drop every element, keeping the backing array. *)
