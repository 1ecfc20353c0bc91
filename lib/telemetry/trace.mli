(** Per-transaction trace spans, stamped with sim time.

    A span is a named interval [\[start, stop\]] in virtual time, tagged
    with a category, a process ([pid] = node id), a thread ([tid] = app
    thread or peer flow), string arguments, and an optional parent span —
    enough to reconstruct the paper's latency breakdown (ownership
    acquisition vs. local execution vs. pipelined replication) for every
    individual transaction.

    Tracing is {e disabled} by default: [start_span] then returns the
    shared {!null_span} and every other operation on it is a no-op, so
    instrumented hot paths cost one branch when tracing is off.
    Timestamps come from the [now] closure (wired to
    [Zeus_sim.Engine.now]); sim µs map 1:1 to Chrome trace_event µs. *)

type span = private {
  id : int;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  parent : int;  (** [-1] for roots *)
  start : float;
  mutable stop : float;
  mutable args : (string * string) list;
}

val null_span : span
(** The disabled span: operations on it are no-ops. *)

type t

val create : ?enabled:bool -> ?max_spans:int -> now:(unit -> float) -> unit -> t
(** [max_spans] bounds memory (default 2M); further spans are counted as
    {!dropped} rather than recorded. *)

val enabled : t -> bool
val count : t -> int
val dropped : t -> int

val start_span :
  t ->
  cat:string ->
  pid:int ->
  ?tid:int ->
  ?parent:span ->
  ?args:(string * string) list ->
  string ->
  span
(** Open a span at the current sim time ({!null_span} when disabled). *)

val finish : t -> ?args:(string * string) list -> span -> unit
(** Close at the current sim time.  Idempotent: a second finish (e.g. a
    late arbitration response after a timeout already closed the span) is
    ignored. *)

val finish_at : t -> stop:float -> ?args:(string * string) list -> span -> unit

val complete :
  t ->
  cat:string ->
  pid:int ->
  ?tid:int ->
  ?parent:span ->
  ?args:(string * string) list ->
  start:float ->
  stop:float ->
  string ->
  unit
(** Record a closed interval in one call (retrospective phase spans). *)

val is_null : span -> bool

(** {1 Query (tests, breakdown tables)} *)

val spans : t -> span list
(** All recorded spans, sorted by start time; still-open spans export
    with [stop = start]. *)

val roots : t -> span list
val children : t -> span -> span list
val find_all : t -> string -> span list

(** {1 Export} *)

val to_chrome_string : t -> string
(** Chrome [trace_event] JSON (["X"] complete events plus process-name
    metadata) — load in [chrome://tracing] or Perfetto. *)

val to_jsonl_string : t -> string
(** One JSON object per span per line. *)

val write_chrome : t -> string -> unit
val write_jsonl : t -> string -> unit
