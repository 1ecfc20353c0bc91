(** Domain-parallel map over independent sweep points.

    Points must be pure functions of their parameters (own cluster, own
    RNGs, no printing); see the implementation notes and DESIGN.md §12. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, running up to [jobs]
    domains in parallel (default: [Domain.recommended_domain_count ()],
    the cores the process may run on, capped at 4), and returns the
    results in input order.  With
    [jobs <= 1] this is exactly [List.map]. *)
