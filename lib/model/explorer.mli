(** Bounded exhaustive state-space exploration.

    The paper model-checks the ownership and reliable-commit protocols in
    TLA+ against crash-stop failures, message reordering and duplication
    (§8).  This module is the executable analogue: breadth-first search
    over {e every} interleaving of the real sans-I/O protocol cores
    ({!Core_harness}), checking an invariant in every reached state and a
    liveness-style predicate in every quiescent (transition-free) state. *)

type 'state stats = {
  explored : int;          (** distinct states visited *)
  transitions : int;
  quiescent : int;         (** states with no enabled transition *)
  max_depth : int;
  exhausted : bool;
      (** every reachable state was visited: no violation, and the search
          ended before [max_states] *)
  violation : ('state * string) option;
      (** first invariant (or quiescence-condition) violation found *)
  trace : 'state list;
      (** path from an initial state to the violation (empty if none) *)
}

val bfs :
  init:'state list ->
  next:('state -> 'state list) ->
  key:('state -> string) ->
  invariant:('state -> (unit, string) result) ->
  ?at_quiescence:('state -> (unit, string) result) ->
  ?max_states:int ->
  unit ->
  'state stats
(** [next] must return every successor of a state (all enabled
    transitions).  States are deduplicated on [key]: two states with equal
    keys are treated as the same state, so the key must be canonical and
    capture everything that influences future behaviour.  Only the digest
    of each visited key is kept, with its parent's; a violation's [trace]
    is rebuilt by replaying [next] from [init] along that chain, so [next]
    must be deterministic up to [key].  Exploration stops at [max_states]
    (default 500_000) or at the first violation. *)
