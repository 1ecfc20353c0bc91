(** Severity-tagged structured logging for the whole stack.

    Replaces the ad-hoc [Printf.printf]/[eprintf] calls that used to live
    under [lib/]: libraries emit through {!infof}/{!debugf}/{!warnf} and
    the process entry point decides how chatty to be.

    The default level is [Warn], so [dune runtest] output stays clean —
    library code never prints on the happy path.  Entry points that want
    experiment tables ([zeus_cli]) call [set_level Info] at
    startup.  The [ZEUS_LOG] environment variable ([quiet]/[error]/[warn]/
    [info]/[debug]) overrides in both directions and always wins over
    [set_level] when it asks for {e more} verbosity, so [ZEUS_LOG=debug
    dune runtest] works without code changes.

    [Info] is user-facing application output: plain lines on stdout with
    no tag.  [Error]/[Warn]/[Debug] are diagnostics: stderr, prefixed
    [\[zeus:level:src\]]. *)

type level = Quiet | Error | Warn | Info | Debug

val set_level : level -> unit
val level : unit -> level

val enabled : level -> bool
(** Guard for log statements whose arguments are expensive to compute. *)

val warnf : ?src:string -> ('a, out_channel, unit) format -> 'a
val infof : ?src:string -> ('a, out_channel, unit) format -> 'a
val debugf : ?src:string -> ('a, out_channel, unit) format -> 'a

val info_string : string -> unit
(** Emit a pre-rendered block (e.g. a buffered table) at [Info]. *)

val flush_info : unit -> unit
(** Flush stdout iff [Info] is enabled (replaces [printf "%!"] sites). *)
