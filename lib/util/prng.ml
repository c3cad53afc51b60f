(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, good statistical
   quality, and cheap splitting -- ideal for reproducible workloads. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = next64 t }
let next t = Int64.to_int (next64 t) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = max_int - (max_int mod bound) in
  let rec go () =
    let v = next t in
    if v < limit then v mod bound else go ()
  in
  go ()

let float t = Float.of_int (next t) /. Float.of_int max_int
let bool t = next t land 1 = 1
