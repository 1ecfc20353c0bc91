type 'a t = {
  mutable cells : 'a array;  (* length a power of two; absent cells hold [dummy] *)
  mutable lo : int;  (* lowest present slot, [hi] when empty *)
  mutable hi : int;  (* one past the highest present slot *)
  mutable count : int;
  dummy : 'a;
}

let initial_capacity = 8

let create ~dummy =
  { cells = Array.make initial_capacity dummy; lo = 0; hi = 0; count = 0; dummy }

let length w = w.count
let low w = w.lo
let high w = w.hi
let index w s = s land (Array.length w.cells - 1)
let find w s = if s < w.lo || s >= w.hi then w.dummy else w.cells.(index w s)
let mem w s = find w s != w.dummy

(* Re-lay the present slots into a ring wide enough for [[lo, hi)]. *)
let grow w ~lo ~hi =
  let len = ref (Array.length w.cells) in
  while hi - lo > !len do
    len := 2 * !len
  done;
  if !len > Array.length w.cells then begin
    let cells = Array.make !len w.dummy in
    for s = w.lo to w.hi - 1 do
      cells.(s land (!len - 1)) <- w.cells.(index w s)
    done;
    w.cells <- cells
  end

let set w s v =
  if w.count = 0 then begin
    w.lo <- s;
    w.hi <- s + 1
  end
  else if s < w.lo || s >= w.hi then begin
    let lo = min w.lo s and hi = max w.hi (s + 1) in
    grow w ~lo ~hi;
    w.lo <- lo;
    w.hi <- hi
  end;
  let i = index w s in
  if w.cells.(i) == w.dummy then w.count <- w.count + 1;
  w.cells.(i) <- v

(* Pull the bounds in to the present slots after a removal. *)
let tighten w =
  if w.count = 0 then w.lo <- w.hi
  else begin
    while w.cells.(index w w.lo) == w.dummy do
      w.lo <- w.lo + 1
    done;
    while w.cells.(index w (w.hi - 1)) == w.dummy do
      w.hi <- w.hi - 1
    done
  end

let remove w s =
  if s >= w.lo && s < w.hi then begin
    let i = index w s in
    if w.cells.(i) != w.dummy then begin
      w.cells.(i) <- w.dummy;
      w.count <- w.count - 1;
      tighten w
    end
  end

let remove_below w s =
  if s > w.lo then begin
    for slot = w.lo to min w.hi s - 1 do
      let i = index w slot in
      if w.cells.(i) != w.dummy then begin
        w.cells.(i) <- w.dummy;
        w.count <- w.count - 1
      end
    done;
    tighten w
  end

let iter f w =
  for s = w.lo to w.hi - 1 do
    let v = find w s in
    if v != w.dummy then f s v
  done

let clear w =
  Array.fill w.cells 0 (Array.length w.cells) w.dummy;
  w.lo <- 0;
  w.hi <- 0;
  w.count <- 0

let copy f w =
  {
    w with
    cells = Array.map (fun v -> if v == w.dummy then v else f v) w.cells;
  }
