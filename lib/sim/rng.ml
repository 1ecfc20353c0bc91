(* The 64-bit state lives in an 8-byte buffer rather than a [mutable
   int64] record field: [Bytes.get/set_int64_le] compile to raw unboxed
   loads and stores, so a draw allocates nothing for the state update
   (a boxed-int64 field would re-box on every write).  The sequences are
   bit-identical to the previous representation. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 seed;
  b

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t =
  let seed = int64 t in
  create seed

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value stays non-negative in a 63-bit native int. *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)
let float t bound = bound *. (float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L
let chance t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

module Zipf = struct
  type nonrec rng = t [@@warning "-34"]

  type t = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
  }

  let zeta n theta =
    let sum = ref 0.0 in
    for i = 1 to n do
      sum := !sum +. (1.0 /. (float_of_int i ** theta))
    done;
    !sum

  let create ~n ~theta =
    assert (n > 0);
    if theta = 0.0 then { n; theta; alpha = 0.0; zetan = 0.0; eta = 0.0 }
    else begin
      let zetan = zeta n theta in
      let zeta2 = zeta 2 theta in
      let alpha = 1.0 /. (1.0 -. theta) in
      let eta =
        (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
        /. (1.0 -. (zeta2 /. zetan))
      in
      { n; theta; alpha; zetan; eta }
    end

  let sample t rng =
    if t.theta = 0.0 then int rng t.n
    else begin
      let u = float rng 1.0 in
      let uz = u *. t.zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. (0.5 ** t.theta) then 1
      else begin
        let v = float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha) in
        let k = int_of_float v in
        if k >= t.n then t.n - 1 else if k < 0 then 0 else k
      end
    end
end
