module Rng = Zeus_sim.Rng

let grid = 32
let driver_frac = 0.4
let driver_trip_km = 20.0
let nondriver_trip_km = 4.0
let stations = grid * grid

(* Contiguous 2-D tiling: cut the grid into [a × b] blocks with a * b =
   nodes, a and b as balanced as possible — geographic sharding keeps
   nearby stations on the same node (§2.2). *)
let tiling nodes =
  let rec best a =
    if a = 0 then (1, nodes)
    else if nodes mod a = 0 then (a, nodes / a)
    else best (a - 1)
  in
  best (int_of_float (sqrt (float_of_int nodes)))

let tile_of ~nodes (x, y) =
  let a, b = tiling nodes in
  (* a rows of b columns *)
  let row = min (a - 1) (y * a / grid) in
  let col = min (b - 1) (x * b / grid) in
  (row * b) + col

let station_of_cell (x, y) = (y * grid) + x

let clamp v = if v < 0 then 0 else if v >= grid then grid - 1 else v

let walk rng =
  let x0 = Rng.float rng (float_of_int grid) in
  let y0 = Rng.float rng (float_of_int grid) in
  let angle = Rng.float rng (2.0 *. Float.pi) in
  let len =
    if Rng.chance rng driver_frac then Rng.exponential rng ~mean:driver_trip_km
    else Rng.exponential rng ~mean:nondriver_trip_km
  in
  let dx = cos angle and dy = sin angle in
  let steps = int_of_float (len /. 0.25) in
  let cells = ref [] in
  let last = ref (-1, -1) in
  for i = 0 to steps do
    let fx = x0 +. (dx *. 0.25 *. float_of_int i) in
    let fy = y0 +. (dy *. 0.25 *. float_of_int i) in
    let cx = clamp (int_of_float fx) and cy = clamp (int_of_float fy) in
    if (cx, cy) <> !last then begin
      last := (cx, cy);
      cells := (cx, cy) :: !cells
    end
  done;
  List.rev !cells

let sample_trip ~nodes rng =
  List.map (fun cell -> (station_of_cell cell, tile_of ~nodes cell)) (walk rng)

let remote_handover_fraction ?(trips = 20_000) ~nodes rng =
  let handovers = ref 0 and remote = ref 0 in
  for _ = 1 to trips do
    let cells = walk rng in
    let rec count = function
      | a :: (b :: _ as rest) ->
        incr handovers;
        if tile_of ~nodes a <> tile_of ~nodes b then incr remote;
        count rest
      | [ _ ] | [] -> ()
    in
    count cells
  done;
  if !handovers = 0 then 0.0 else float_of_int !remote /. float_of_int !handovers
