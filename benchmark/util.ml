(* Summary statistics, hand-written JSON output, process memory. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = Zeus_sim.Stats.percentile_of_sorted (sorted xs) 50.0

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method) computes them; one value is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* ---------- JSON ------------------------------------------------------------ *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"
let arr vs = "[" ^ String.concat ", " vs ^ "]"

module J = Zeus_telemetry.Jsonv

let member_exn k v =
  match J.member k v with Some x -> x | None -> failwith ("missing JSON member " ^ k)

let float_of k v =
  match member_exn k v with
  | J.Num f -> f
  | J.Null -> Float.nan
  | _ -> failwith ("not a number: " ^ k)

let string_of k v =
  match J.to_string (member_exn k v) with Some s -> s | None -> failwith ("not a string: " ^ k)

let assoc_of k v =
  match member_exn k v with J.Obj kvs -> kvs | _ -> failwith ("not an object: " ^ k)

let list_of k v =
  match J.to_list (member_exn k v) with Some l -> l | None -> failwith ("not a list: " ^ k)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match J.parse (read_file path) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---------- memory ---------------------------------------------------------- *)

(* Peak resident set of this process ([VmHWM], kB in /proc/self/status), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go
