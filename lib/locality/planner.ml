open Zeus_store

type config = { cooldown_us : float }

let default_config = { cooldown_us = 200.0 }
let hysteresis = 2.0
let min_rate = 0.5
let pingpong_window_us = 2_000.0
let pingpong_moves = 4
let pin_us = 20_000.0
let read_replicate_ratio = 0.6

type decision =
  | Stay
  | Prefetch of { target : Types.node_id; directional : bool }
  | Replicate of Types.node_id
  | Pin of Types.node_id

let pp_decision ppf = function
  | Stay -> Format.pp_print_string ppf "stay"
  | Prefetch { target; directional } ->
    Format.fprintf ppf "prefetch(n%d%s)" target (if directional then ",dir" else "")
  | Replicate n -> Format.fprintf ppf "replicate(n%d)" n
  | Pin n -> Format.fprintf ppf "pin(n%d)" n

type kstate = {
  mutable moves : (Types.node_id * float) list;  (* newest first, bounded *)
  mutable n_moves : int;
  mutable last_move : float;
  mutable pinned_until : float;
  mutable pin_target : Types.node_id;
  mutable readers : Types.node_id list;          (* read-only interest *)
}

type t = {
  config : config;
  keys : (Types.key, kstate) Hashtbl.t;
  mutable n_pins : int;
}

let create ?(config = default_config) () =
  { config; keys = Hashtbl.create 256; n_pins = 0 }

let kstate t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
    let s =
      {
        moves = [];
        n_moves = 0;
        last_move = neg_infinity;
        pinned_until = neg_infinity;
        pin_target = -1;
        readers = [];
      }
    in
    if Hashtbl.length t.keys >= 8_192 then Hashtbl.reset t.keys;
    Hashtbl.replace t.keys key s;
    s

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let note_migration t ~key ~owner ~now =
  let s = kstate t key in
  (match s.moves with
  | (prev, _) :: _ when prev = owner -> ()
  | _ ->
    s.moves <- take 8 ((owner, now) :: s.moves);
    s.n_moves <- s.n_moves + 1;
    s.last_move <- now;
    (* a node that takes ownership is a writer, not a reader candidate *)
    s.readers <- List.filter (fun n -> n <> owner) s.readers;
    (* ping-pong: enough recent moves bouncing between at most two nodes
       declares thrash; pin where the key landed — executing the pin then
       costs zero further migrations, and the caller re-routes traffic. *)
    let recent =
      List.filter (fun (_, at) -> now -. at <= pingpong_window_us) s.moves
    in
    if List.length recent >= pingpong_moves then begin
      let contenders =
        List.sort_uniq compare (List.map (fun (n, _) -> n) recent)
      in
      if List.length contenders <= 2 && now >= s.pinned_until then begin
        s.pinned_until <- now +. pin_us;
        s.pin_target <- owner;
        t.n_pins <- t.n_pins + 1
      end
    end)

let note_read_interest t ~key ~node =
  let s = kstate t key in
  if not (List.mem node s.readers) then s.readers <- node :: s.readers

let pinned t ~key ~now =
  match Hashtbl.find_opt t.keys key with
  | Some s when now < s.pinned_until -> Some s.pin_target
  | Some _ | None -> None

let decide t ~predictor ~log ~key ~holder ~now =
  match pinned t ~key ~now with
  | Some target -> Pin target
  | None -> (
    let s = Hashtbl.find_opt t.keys key in
    let in_cooldown =
      match s with
      | Some s -> now -. s.last_move < t.config.cooldown_us
      | None -> false
    in
    if in_cooldown then Stay
    else
      match Predictor.predict predictor ~log ~key ~now with
      | None -> Stay
      | Some { Predictor.target; directional; _ } ->
        if target = holder then Stay
        else if directional then Prefetch { target; directional = true }
        else begin
          let r_target = Access_log.rate log ~key ~node:target ~now in
          let r_holder = Access_log.rate log ~key ~node:holder ~now in
          let tot = Access_log.total log ~key ~now in
          if r_target < min_rate then Stay
          else if
            (match s with Some s -> List.mem target s.readers | None -> false)
            && tot > 0.0
            && r_target /. tot >= read_replicate_ratio
          then Replicate target
          else if r_target >= hysteresis *. Float.max r_holder 0.05 then
            Prefetch { target; directional = false }
          else Stay
        end)

let migrations t ~key =
  match Hashtbl.find_opt t.keys key with Some s -> s.n_moves | None -> 0

let pins_set t = t.n_pins
