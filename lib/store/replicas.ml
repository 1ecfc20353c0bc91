type t = { owner : Types.node_id option; readers : Types.node_id list }

let none = { owner = None; readers = [] }

let v ~owner ~readers = { owner = Some owner; readers = List.filter (fun r -> r <> owner) readers }

(* No constructor below ever puts the owner among [readers]. *)
let all t = match t.owner with Some o -> o :: t.readers | None -> t.readers

let is_owner t (n : Types.node_id) = match t.owner with Some o -> o = n | None -> false
let is_reader t n = List.mem n t.readers
let is_replica t n = is_owner t n || is_reader t n
let count t = List.length (all t)

let promote t ~new_owner =
  let readers =
    let demoted = match t.owner with Some o when o <> new_owner -> [ o ] | _ -> [] in
    demoted @ List.filter (fun r -> r <> new_owner) t.readers
  in
  { owner = Some new_owner; readers }

let add_reader t n =
  if is_replica t n then t else { t with readers = t.readers @ [ n ] }

let remove_reader t n = { t with readers = List.filter (fun r -> r <> n) t.readers }

let drop_dead t ~live =
  let owner_live = match t.owner with Some o -> live o | None -> true in
  if owner_live && List.for_all live t.readers then t
  else
    {
      owner = (if owner_live then t.owner else None);
      readers = List.filter live t.readers;
    }

let pp ppf t =
  Format.fprintf ppf "{owner=%s; readers=[%a]}"
    (match t.owner with Some o -> "n" ^ string_of_int o | None -> "-")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    t.readers
