(** Message payloads carried by the network substrate.

    [payload] is an extensible variant: each protocol library adds its own
    constructors (ownership REQ/INV/ACK/VAL, reliable-commit R-INV/..., etc.)
    and pattern-matches only on those, so the substrate stays oblivious to
    protocol contents. *)

type node_id = int

type payload = ..
