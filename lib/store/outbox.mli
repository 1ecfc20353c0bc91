(** The effect buffer of a sans-I/O protocol core.

    While a core steps through one input it emits effects into the buffer
    kept in its state, and they stay there: the interpreter walks them in
    place with {!length} and {!get}, then {!truncate}s them away, so an
    untraced input builds neither a list nor a result pair.  Both protocol
    cores ({!Zeus_ownership.Core}, {!Zeus_commit.Core}) use it.

    {b Stack discipline.}  Executing an effect may feed the same core
    again (a continuation that starts the next request), so the buffer is
    a stack of slices, one per input being executed.  An interpreter
    notes [mark = length b] before it steps the core and [stop = length b]
    after; it executes the effects of [[mark, stop)] in order and finally
    truncates back to [mark].  A nested feed during that walk pushes its
    slice above [stop] and pops it before the walk resumes, so the outer
    slice stays intact.

    {b Cell reuse.}  The effects are mutable cells, and the buffer reuses
    them: truncating puts each released cell into the pool of its kind,
    and an emitter takes a cell of the kind it needs back with {!reuse},
    overwrites its fields and emits it again, so a steady stream of
    effects allocates nothing.  Pools are by kind, not by position in the
    buffer, because successive inputs emit different sequences of kinds.
    A released cell is therefore overwritten by a later emission of its
    kind: an effect read with {!get} is valid only until its slice is
    truncated, and nothing may keep it past that.  The list views
    ({!to_list}, {!take}) hand out a copy of every effect, made by the
    buffer's [copy], so a list outlives the cells it was read from.

    {b Retention.}  Each pool holds at most the largest number of its
    kind's cells ever emitted at once, and a pooled cell keeps what its
    fields last held until it is reused.  A cell of no pooled kind (a
    constant, an immutable effect) is not kept: truncating and taking
    reset the buffer's cells to the dummy, so no such effect stays
    reachable from the long-lived state. *)

type 'a t

val create : dummy:'a -> copy:('a -> 'a) -> kinds:int -> kind:('a -> int) -> 'a t
(** An empty buffer.  [kind e] is the pool [e] goes to once released, in
    [[0, kinds)], or a negative number for an effect that is never reused.
    Only an emitter of kind [k] may take and overwrite a cell of pool [k].
    [copy e] is a fresh effect equal to [e] that shares no mutable cell
    with it, for the list views.  [dummy] fills the cells no effect
    occupies: pass a constant of no pooled kind. *)

val emit : 'a t -> 'a -> unit
(** Append an effect, growing the buffer when it is full. *)

val reuse : 'a t -> int -> 'a
(** [reuse b k] takes a released cell of kind [k] out of its pool, for
    the caller to overwrite and {!emit}; the dummy when the pool is
    empty. *)

val length : 'a t -> int
(** The number of effects held. *)

val get : 'a t -> int -> 'a
(** [get b i] is the [i]-th effect held, counting from 0 in emission order.
    @raise Invalid_argument unless [0 <= i < length b]. *)

val truncate : 'a t -> int -> unit
(** [truncate b n] drops every effect from index [n] on: their cells go
    back to their pools and the buffer's cells are reset to the dummy.
    @raise Invalid_argument unless [0 <= n <= length b]. *)

val to_list : 'a t -> from:int -> 'a list
(** Copies of the effects from index [from] on, in emission order; the
    effects stay in the buffer.
    @raise Invalid_argument unless [0 <= from <= length b]. *)

val take : 'a t -> 'a list
(** Copies of every effect held, in emission order; the buffer is left
    empty. *)
