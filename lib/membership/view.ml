type t = { epoch : int; live : bool array }

let initial ~nodes = { epoch = 0; live = Array.make nodes true }
let is_live t n = n >= 0 && n < Array.length t.live && t.live.(n)

let live_list t =
  let acc = ref [] in
  for i = Array.length t.live - 1 downto 0 do
    if t.live.(i) then acc := i :: !acc
  done;
  !acc


let without t n =
  let live = Array.copy t.live in
  live.(n) <- false;
  { epoch = t.epoch + 1; live }

let with_node t n =
  let live = Array.copy t.live in
  live.(n) <- true;
  { epoch = t.epoch + 1; live }

let pp ppf t =
  Format.fprintf ppf "epoch=%d live=[%a]" t.epoch
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    (live_list t)
