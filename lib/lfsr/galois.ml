type t = {
  width : int;
  toggle_mask : int;
      (* positions XOR-toggled when the output bit is 1 *)
  mutable state : int;
}

(* For polynomial x^w + x^a + ... + 1 the Galois register, shifting
   right, toggles bit (a - 1) for every non-leading exponent [a] when
   the shifted-out bit is 1, and feeds that bit into the MSB. *)
let toggle_mask_of (taps : Taps.t) =
  List.fold_left
    (fun m e -> if e = taps.width then m else m lor (1 lsl (e - 1)))
    0 taps.exponents

let create ?(seed = 1) (taps : Taps.t) =
  let state = seed land Bor_util.Bits.mask taps.width in
  if state = 0 then invalid_arg "Galois.create: seed reduces to all-zeros";
  { width = taps.width; toggle_mask = toggle_mask_of taps; state }

let peek t = t.state

let step t =
  let out = t.state land 1 in
  let shifted = t.state lsr 1 in
  t.state <-
    (if out = 1 then
       shifted lxor t.toggle_mask lor (1 lsl (t.width - 1))
     else shifted);
  t.state

let copy t = { t with state = t.state }

let period t =
  let probe = copy t in
  let start = peek probe in
  let rec go n =
    if step probe = start then n + 1
    else if n > 1 lsl 22 then -1
    else go (n + 1)
  in
  go 0

let matches_fibonacci_period taps =
  let g = create taps in
  let f = Lfsr.create taps in
  let fib_period =
    let start = Lfsr.peek f in
    let rec go n =
      if Lfsr.step f = start then n + 1
      else if n > 1 lsl 22 then -1
      else go (n + 1)
    in
    go 0
  in
  period g = fib_period
