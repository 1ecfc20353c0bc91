(** The effect buffer of a sans-I/O protocol core.

    While a core handles one input it emits effects into the buffer kept in
    its state; {!take} then hands them over as one list, built back to
    front so that an input allocates one cons per effect and no closure.
    Taking clears the cells behind it, so no effect stays reachable from
    the long-lived state.  Both protocol cores ({!Zeus_ownership.Core},
    {!Zeus_commit.Core}) use it. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty buffer.  [dummy] fills the cells no effect occupies: pass a
    constant. *)

val emit : 'a t -> 'a -> unit
(** Append an effect, growing the buffer when it is full. *)

val take : 'a t -> 'a list
(** The effects emitted since the last [take], in emission order; the
    buffer is left empty. *)
