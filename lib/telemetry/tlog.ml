type level = Quiet | Error | Warn | Info | Debug

let int_of_level = function
  | Quiet -> 0
  | Error -> 1
  | Warn -> 2
  | Info -> 3
  | Debug -> 4

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "quiet" | "off" | "none" -> Some Quiet
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" | "trace" -> Some Debug
  | _ -> None

(* Default Warn: tests and library code stay silent (nothing warns on the
   happy path) while genuine problems still reach stderr.  ZEUS_LOG
   overrides; entry points (zeus_cli, bench) raise to Info for tables. *)
let env_level () =
  match Sys.getenv_opt "ZEUS_LOG" with
  | None -> None
  | Some s -> level_of_string s

let current = ref (match env_level () with Some l -> l | None -> Warn)

let set_level l =
  (* The environment wins over programmatic defaults, so ZEUS_LOG=debug
     still works under entry points that call [set_level Info]. *)
  match env_level () with
  | Some env when int_of_level env > int_of_level l -> current := env
  | _ -> current := l

let level () = !current
let enabled l = int_of_level l <= int_of_level !current

let tag = function
  | Error -> "[zeus:error"
  | Warn -> "[zeus:warn"
  | Debug -> "[zeus:debug"
  | Quiet | Info -> "[zeus"

let logf lvl ?src fmt =
  if not (enabled lvl) then Printf.ifprintf stdout fmt
  else
    match lvl with
    | Info ->
      (* Info is user-facing application output (experiment tables etc.):
         plain lines on stdout, no severity tag. *)
      Printf.printf (fmt ^^ "\n")
    | _ ->
      let src = match src with None -> "" | Some s -> ":" ^ s in
      Printf.eprintf ("%s%s] " ^^ fmt ^^ "\n%!") (tag lvl) src

let warnf ?src fmt = logf Warn ?src fmt
let infof ?src fmt = logf Info ?src fmt
let debugf ?src fmt = logf Debug ?src fmt

let info_string s = if enabled Info then print_string s
let flush_info () = if enabled Info then flush stdout
