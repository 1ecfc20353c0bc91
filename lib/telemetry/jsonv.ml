(* Minimal JSON value: a recursive-descent reader (validates the trace
   exporter's output, reads the perf baseline) and the one printer every
   BENCH file, chaos report and trace export goes through — no JSON
   dependency in the tree. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Bad of string

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    && (match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.i <- st.i + 1
  done

let fail st msg = raise (Bad (Printf.sprintf "%s at offset %d" msg st.i))

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.i <- st.i + 1
  | _ -> fail st (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.i >= String.length st.s then fail st "unterminated string"
    else begin
      let c = st.s.[st.i] in
      st.i <- st.i + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if st.i >= String.length st.s then fail st "bad escape"
         else begin
           let e = st.s.[st.i] in
           st.i <- st.i + 1;
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             if st.i + 4 > String.length st.s then fail st "bad \\u escape";
             let hex = String.sub st.s st.i 4 in
             st.i <- st.i + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail st "bad \\u escape"
             in
             (* Non-ASCII code points round-trip as '?' — the exporter
                only emits ASCII, this is validation, not fidelity. *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
           | _ -> fail st "bad escape"
         end);
        go ()
      | c -> Buffer.add_char buf c; go ()
    end
  in
  go ()

let parse_number st =
  let start = st.i in
  let isnum c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.i < String.length st.s && isnum st.s.[st.i] do
    st.i <- st.i + 1
  done;
  if st.i = start then fail st "expected number";
  match float_of_string_opt (String.sub st.s start (st.i - start)) with
  | Some f -> Num f
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then (st.i <- st.i + 1; Obj [])
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.i <- st.i + 1; members ((k, v) :: acc)
        | Some '}' -> st.i <- st.i + 1; Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected , or }"
      in
      members []
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then (st.i <- st.i + 1; Arr [])
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.i <- st.i + 1; elems (v :: acc)
        | Some ']' -> st.i <- st.i + 1; Arr (List.rev (v :: acc))
        | _ -> fail st "expected , or ]"
      in
      elems []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { s; i = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.i <> String.length s then Error "trailing garbage"
    else Ok v
  with Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_float = function Num f -> Some f | _ -> None

(* ---------- printing ------------------------------------------------------ *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 || c = '\127' ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.15g is exact for every double that has a decimal form of at most 15
   significant digits, and %g drops trailing zeros and a bare point, so the
   first precision that reads back is the shortest form. *)
let add_number buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else begin
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else shortest (p + 1)
    in
    Buffer.add_string buf (shortest 15)
  end

let num x = Num x
let int n = Num (float_of_int n)
let opt f = function Some x -> f x | None -> Null

(* The top-level container and its array members put one item per line;
   everything deeper stays on the line of its parent item, so one BENCH
   scenario or sweep point is one greppable line. *)
let serialize v =
  let buf = Buffer.create 1024 in
  let rec value depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_number buf x
    | Str s -> add_string buf s
    | Arr xs -> items depth ('[', ']') (value (depth + 1)) xs
    | Obj kvs ->
      items depth ('{', '}')
        (fun (k, v) ->
          add_string buf k;
          Buffer.add_string buf ": ";
          value (depth + 1) v)
        kvs
  and items : 'a. int -> char * char -> ('a -> unit) -> 'a list -> unit =
   fun depth (op, cl) item xs ->
    let broken = xs <> [] && (depth = 0 || (depth = 1 && op = '[')) in
    let indent d = Buffer.add_char buf '\n'; Buffer.add_string buf (String.make d ' ') in
    Buffer.add_char buf op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf (if broken then "," else ", ");
        if broken then indent (depth + 1);
        item x)
      xs;
    if broken then indent depth;
    Buffer.add_char buf cl
  in
  value 0 v;
  Buffer.contents buf
