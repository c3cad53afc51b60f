type t = int

let of_field f =
  if f < 0 || f > 15 then invalid_arg "Freq.of_field: need 0..15";
  f

let to_field f = f

let of_period n =
  match Bor_util.Bits.log2_exact n with
  | Some k when k >= 1 && k <= 16 -> k - 1
  | Some _ | None ->
    invalid_arg "Freq.of_period: need a power of two in [2, 65536]"

let period f = 1 lsl (f + 1)
let probability f = 1. /. Float.of_int (period f)
let and_width f = f + 1
let equal = Int.equal
let compare = Int.compare
let pp ppf f = Format.fprintf ppf "1/%d" (period f)
