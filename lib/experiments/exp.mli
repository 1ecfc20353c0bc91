(** Experiment plumbing: result tables and printers shared by every
    figure/table reproduction, plus the paper-reported values we compare
    against (EXPERIMENTS.md records the outcomes). *)

type series = { label : string; points : (float * float) list }

type figure = {
  id : string;            (** e.g. "fig8" *)
  title : string;
  x_axis : string;
  y_axis : string;
  series : series list;
  paper : string list;    (** what the paper reports, for eyeballing shape *)
  notes : string list;
}

val print_figure : figure -> unit
(** Render as an aligned text table at [Tlog] level [Info]. *)

val print_kv : string -> (string * string) list -> unit

val print_phase_breakdown : string -> Zeus_core.Cluster.t -> unit
(** Per-phase transaction-latency table (ownership / execute /
    local-commit / replication / end-to-end) from the cluster hub's
    [txn.*] histograms; silent if no transaction committed. *)

val scale_note : quick:bool -> string

(** Deployment scaled down from the paper's testbed; [quick] shrinks it
    further for smoke runs. *)
type scale = {
  duration_us : float;
  warmup_us : float;
  objects_per_node : int;
}

val scale_of : quick:bool -> scale

val txns_with_ownership : Zeus_core.Cluster.t -> int
(** {!Zeus_core.Node.txns_with_ownership} summed over the cluster's
    nodes. *)

val run_zeus :
  Zeus_core.Cluster.t ->
  quick:bool ->
  issue:(Zeus_core.Node.t -> thread:int -> (Zeus_store.Txn.outcome -> unit) -> unit) ->
  Zeus_workload.Driver.result * float
(** {!Zeus_workload.Driver.run} over every node for the scale's window,
    and the share (in %) of committed write transactions that needed an
    ownership change, both counted in that window — the x-axis of
    Figures 8 and 9 and tpcc's ownership row. *)
