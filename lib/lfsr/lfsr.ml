type t = {
  width : int;
  taps : Taps.t;
  tap_mask : int; (* OR of the right-shift feedback bit positions *)
  mutable state : int;
  mutable updates : int;
}

(* The tap table speaks polynomial exponents (x^w + x^a + ... + 1). In the
   right-shifting register of Figure 6, exponent [e] corresponds to bit
   [w - e]; e.g. x^4 + x^3 + 1 feeds back from bits 0 and 1, the "right
   two bits" of the figure. *)
let right_shift_mask (taps : Taps.t) =
  List.fold_left (fun m e -> m lor (1 lsl (taps.width - e))) 0 taps.exponents

let create ?(seed = 1) (taps : Taps.t) =
  let state = seed land Bor_util.Bits.mask taps.width in
  if state = 0 then invalid_arg "Lfsr.create: seed reduces to all-zeros";
  { width = taps.width; taps; tap_mask = right_shift_mask taps; state; updates = 0 }

let width t = t.width
let peek t = t.state

let step t =
  let fb = Bor_util.Bits.parity (t.state land t.tap_mask) in
  t.state <- (fb lsl (t.width - 1)) lor (t.state lsr 1);
  t.updates <- t.updates + 1;
  t.state

let set_state t v =
  if v <= 0 || v > Bor_util.Bits.mask t.width then
    invalid_arg "Lfsr.set_state: value out of range or zero";
  t.state <- v

let updates t = t.updates

let shifted_out_bit _t before = before land 1 = 1

let shift_back t ~recovered_msb =
  let recovered = if recovered_msb then 1 else 0 in
  t.state <- ((t.state lsl 1) lor recovered) land Bor_util.Bits.mask t.width;
  t.updates <- t.updates - 1
