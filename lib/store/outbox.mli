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

    {!take} and {!to_list} copy effects into a list, for list users: the
    [handle] adapters of the cores, io taps and replay.  Truncating and
    taking clear the cells they release, so no effect stays reachable from
    the long-lived state. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty buffer.  [dummy] fills the cells no effect occupies: pass a
    constant. *)

val emit : 'a t -> 'a -> unit
(** Append an effect, growing the buffer when it is full. *)

val length : 'a t -> int
(** The number of effects held. *)

val get : 'a t -> int -> 'a
(** [get b i] is the [i]-th effect held, counting from 0 in emission order.
    @raise Invalid_argument unless [0 <= i < length b]. *)

val truncate : 'a t -> int -> unit
(** [truncate b n] drops every effect from index [n] on, resetting their
    cells to the dummy.
    @raise Invalid_argument unless [0 <= n <= length b]. *)

val to_list : 'a t -> from:int -> 'a list
(** The effects from index [from] on, in emission order, left in the
    buffer.  @raise Invalid_argument unless [0 <= from <= length b]. *)

val take : 'a t -> 'a list
(** Every effect held, in emission order; the buffer is left empty. *)
