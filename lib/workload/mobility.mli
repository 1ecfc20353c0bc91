(** Synthetic commuter mobility model (§2.2, §8 "Boston cellular
    handovers").

    Substitutes the Boston metropolitan traces of [Calabrese et al.]: base
    stations sit on a 1 km grid sharded across nodes in contiguous 2-D
    tiles; a trip is a straight line with random origin and direction whose
    length follows the reported statistics (drivers, who make 40 % of the
    trips, average 20 km per trip, non-drivers 4 km, 5 one-way trips/day).  A handover happens at every
    cell crossing; it is {e remote} when the two cells belong to different
    nodes.  The paper reports up to 6.2 % remote handovers at six nodes. *)

val stations : int
(** Number of base stations: a 32 × 32 grid, ~1000 stations. *)

val tile_of : nodes:int -> int * int -> int
(** Which node owns the cell at [(x, y)] (contiguous 2-D tiling). *)

val station_of_cell : int * int -> int
(** Station (cell) index of a grid cell. *)

val remote_handover_fraction : ?trips:int -> nodes:int -> Zeus_sim.Rng.t -> float
(** Monte-Carlo estimate of the fraction of handovers crossing nodes. *)

val sample_trip : nodes:int -> Zeus_sim.Rng.t -> (int * int) list
(** The sequence of [(station, node)] cells visited by one random trip. *)
