(** Performance under failures (§8): Smallbank goodput through crash and
    recovery, with the online invariant monitors armed. *)

val run : quick:bool -> Zeus_chaos.Report.t
(** Print one table per scenario and return the report that
    [BENCH_faults.json] records ({!Zeus_chaos.Report.to_json}). *)
