type sharing = Replicated | Shared

type config = {
  lfsr_width : int;
  decode_width : int;
  sharing : sharing;
  deterministic : bool;
  max_inflight : int;
}

let single_issue =
  {
    lfsr_width = 20;
    decode_width = 1;
    sharing = Replicated;
    deterministic = false;
    max_inflight = 8;
  }

let four_wide = { single_issue with decode_width = 4 }

type breakdown = {
  state_bits : int;
  gates_lfsr_feedback : int;
  gates_and_tree : int;
  gates_mux : int;
  gates_arbitration : int;
  gates_control : int;
  gates_total : int;
}

(* 2-input-gate equivalents for the datapath pieces. A 2:1 mux is ~3
   gates; a 16:1 mux is 15 of them. The AND outputs are shared as a
   cascade (A_k = A_{k-1} & b), so all 15 gates together cost 15. *)
let mux16_gates = 15 * 3
let and_tree_gates = 15

let ceil_log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let estimate c =
  if c.lfsr_width < 16 then invalid_arg "Hwcost.estimate: width < 16";
  if c.decode_width < 1 then invalid_arg "Hwcost.estimate: decode width";
  let copies = match c.sharing with Replicated -> c.decode_width | Shared -> 1 in
  let lanes = c.decode_width in
  let taps = List.length (Bor_lfsr.Taps.maximal c.lfsr_width).exponents in
  let det_bits =
    if c.deterministic then c.max_inflight + ceil_log2 (c.max_inflight + 1)
    else 0
  in
  let state_bits = (copies * c.lfsr_width) + det_bits in
  let gates_lfsr_feedback = copies * (taps - 1) in
  let gates_and_tree = copies * and_tree_gates in
  let gates_mux = lanes * mux16_gates in
  let gates_arbitration =
    match c.sharing with
    | Replicated -> 0
    | Shared -> 2 * lanes (* priority encoder + grant fan-out *)
  in
  (* Decoder extension, taken-redirect steering, BTB-insert suppression
     and LFSR clock gating: a small fixed pile per lane. *)
  let gates_control = 5 + (3 * lanes) + if c.deterministic then 8 else 0 in
  let gates_total =
    gates_lfsr_feedback + gates_and_tree + gates_mux + gates_arbitration
    + gates_control
  in
  {
    state_bits;
    gates_lfsr_feedback;
    gates_and_tree;
    gates_mux;
    gates_arbitration;
    gates_control;
    gates_total;
  }

let state_bits c = (estimate c).state_bits
let gates c = (estimate c).gates_total

let meets_paper_claims () =
  let si = estimate single_issue and fw = estimate four_wide in
  si.state_bits <= 20
  && si.gates_total < 100
  && fw.state_bits <= 100
  && fw.gates_total <= 400
