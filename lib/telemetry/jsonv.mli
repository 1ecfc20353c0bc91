(** Minimal JSON value, reader and printer — the repository's only JSON
    implementation (BENCH files, chaos reports, trace export, the perf
    baseline), with no JSON dependency.  Not a general-purpose parser:
    non-ASCII [\u] escapes decode as ['?']. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

val parse : string -> (v, string) result

val member : string -> v -> v option
val to_list : v -> v list option
val to_string : v -> string option
val to_float : v -> float option

(** {1 Printing} *)

val serialize : v -> string
(** The one printer.  [parse (serialize v) = Ok v] for every [v] whose
    numbers are finite.  A number prints as the shortest decimal that reads
    back to the same float — an integral one without a decimal point — and
    a non-finite one as [null].  Strings escape ['"'], ['\\'] and every
    control character.  Layout: the top-level container and its array
    members put one item per line; everything deeper stays inline, with
    [": "] after a key and [", "] between items, so a line-oriented gate
    can grep for ["\"recovery_us\": null"]. *)

val add_string : Buffer.t -> string -> unit
(** Append the quoted, escaped string literal (for streaming writers). *)

val add_number : Buffer.t -> float -> unit
(** Append a number as {!serialize} prints it. *)

val num : float -> v
val int : int -> v
val opt : ('a -> v) -> 'a option -> v
(** [opt f None = Null]. *)
