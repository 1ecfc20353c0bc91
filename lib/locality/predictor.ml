open Zeus_store

let history = 4
let min_confidence = 0.55

type prediction = { target : Types.node_id; confidence : float; directional : bool }

type track = { mutable owners : Types.node_id list (* newest first, ≤ history *) }

type t = {
  nodes : int;
  tracks : (Types.key, track) Hashtbl.t;
}

let create ~nodes = { nodes; tracks = Hashtbl.create 256 }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let note_owner t ~key ~owner =
  let tr =
    match Hashtbl.find_opt t.tracks key with
    | Some tr -> tr
    | None ->
      let tr = { owners = [] } in
      (* the track table inherits the access log's bound rationale: keys
         whose moves we no longer remember simply fall back to frequency *)
      if Hashtbl.length t.tracks >= 8_192 then Hashtbl.reset t.tracks;
      Hashtbl.replace t.tracks key tr;
      tr
  in
  match tr.owners with
  | prev :: _ when prev = owner -> ()  (* re-confirmation, no move *)
  | owners -> tr.owners <- take history (owner :: owners)

let directional_prediction t key =
  match Hashtbl.find_opt t.tracks key with
  | None -> None
  | Some tr -> (
    match tr.owners with
    | o3 :: o2 :: rest ->
      let d1 = (o3 - o2 + t.nodes) mod t.nodes in
      let consistent =
        match rest with
        | o1 :: _ -> (o2 - o1 + t.nodes) mod t.nodes = d1
        | [] -> false
      in
      if d1 <> 0 && consistent then
        (* two consecutive moves with the same delta: strong pattern *)
        Some { target = (o3 + d1) mod t.nodes; confidence = 0.9; directional = true }
      else None
    | _ -> None)

let frequency_prediction ~log ~key ~now =
  match Access_log.top_node log ~key ~now with
  | None -> None
  | Some (node, r) ->
    let tot = Access_log.total log ~key ~now in
    if tot <= 0.0 then None
    else Some { target = node; confidence = r /. tot; directional = false }

let predict t ~log ~key ~now =
  let p =
    match directional_prediction t key with
    | Some _ as p -> p
    | None -> frequency_prediction ~log ~key ~now
  in
  match p with
  | Some pr when pr.confidence >= min_confidence -> p
  | Some _ | None -> None

let forget t ~key = Hashtbl.remove t.tracks key
let tracked t = Hashtbl.length t.tracks
