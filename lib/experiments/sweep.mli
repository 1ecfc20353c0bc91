(** Domain-parallel map over independent sweep points.

    Points must be pure functions of their parameters (own cluster, own
    RNGs, no printing); see the implementation notes and DESIGN.md §12. *)

val set_jobs : int -> unit
(** Set the process-wide default job count (clamped to >= 1).  Wired to
    the [-j N] flag of [zeus_cli run]. *)

val get_jobs : unit -> int

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, running up to [jobs]
    domains in parallel (default: {!get_jobs}), and returns the results
    in input order.  With [jobs <= 1] this is exactly [List.map]. *)
