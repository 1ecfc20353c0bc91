type t = bytes

let empty = Bytes.create 0
let of_string s = Bytes.of_string s
let to_string b = Bytes.to_string b

(* Fields are read and written in place, one int64 at a time: no list, no
   closure, no intermediate buffer. *)
let rec set_fields b i = function
  | [] -> ()
  | v :: rest ->
    Bytes.set_int64_le b (8 * i) (Int64.of_int v);
    set_fields b (i + 1) rest

let of_ints ints =
  let b = Bytes.create (8 * List.length ints) in
  set_fields b 0 ints;
  b

let to_ints b =
  let n = Bytes.length b / 8 in
  List.init n (fun i -> Int64.to_int (Bytes.get_int64_le b (8 * i)))

let of_int v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let to_int b =
  if Bytes.length b < 8 then invalid_arg "Value.to_int: empty value"
  else Int64.to_int (Bytes.get_int64_le b 0)

let padded fields ~size =
  let b = Bytes.make (max size (8 * List.length fields)) '\000' in
  set_fields b 0 fields;
  b

let size = Bytes.length
let equal = Bytes.equal
