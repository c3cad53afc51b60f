module Telemetry = Bor_telemetry.Telemetry

type t = {
  lfsr : Bor_lfsr.Lfsr.t;
  prob : Bor_lfsr.Prob.t;
  tel_decides : Telemetry.counter;
  tel_takes : Telemetry.counter;
  tel_lfsr_steps : Telemetry.counter;
  tel_undos : Telemetry.counter;
}

let make_tel () =
  let sc = Telemetry.scope "engine" in
  ( Telemetry.counter sc ~doc:"branch-on-random decisions evaluated" "decides",
    Telemetry.counter sc ~doc:"decisions that came out taken" "takes",
    Telemetry.counter sc ~doc:"LFSR register clocks" "lfsr_steps",
    Telemetry.counter sc
      ~doc:"deterministic-mode shift-backs after a squash (\u{00a7}3.4)"
      "undos" )

(* Default seed: a dense bit pattern. Starting from sparse states (such
   as 1) the first few thousand outputs are visibly biased -- the bias
   is only asymptotically zero, so a sensible implementation resets the
   register to a mixed state. *)
let default_seed = 0xB5AD5

let create ?(width = 20) ?taps ?(select = Bor_lfsr.Bit_select.Spaced)
    ?(seed = default_seed) () =
  let taps =
    match taps with Some t -> t | None -> Bor_lfsr.Taps.maximal width
  in
  let width = taps.Bor_lfsr.Taps.width in
  if width < 16 then
    invalid_arg "Engine.create: the 4-bit field needs at least 16 bits";
  let seed = seed land Bor_util.Bits.mask width in
  let seed = if seed = 0 then default_seed land Bor_util.Bits.mask width else seed in
  let tel_decides, tel_takes, tel_lfsr_steps, tel_undos = make_tel () in
  {
    lfsr = Bor_lfsr.Lfsr.create ~seed taps;
    prob = Bor_lfsr.Prob.create ~width select;
    tel_decides;
    tel_takes;
    tel_lfsr_steps;
    tel_undos;
  }

let would_take t f =
  Bor_lfsr.Prob.taken t.prob ~state:(Bor_lfsr.Lfsr.peek t.lfsr)
    ~k:(Freq.and_width f)

let decide t f =
  let taken = would_take t f in
  ignore (Bor_lfsr.Lfsr.step t.lfsr);
  Telemetry.incr t.tel_decides;
  Telemetry.incr t.tel_lfsr_steps;
  if taken then Telemetry.incr t.tel_takes;
  taken

let decide_recorded t f =
  let taken = would_take t f in
  let out = Bor_lfsr.Lfsr.shifted_out_bit t.lfsr (Bor_lfsr.Lfsr.peek t.lfsr) in
  ignore (Bor_lfsr.Lfsr.step t.lfsr);
  Telemetry.incr t.tel_decides;
  Telemetry.incr t.tel_lfsr_steps;
  if taken then Telemetry.incr t.tel_takes;
  (taken, out)

let undo t ~shifted_out =
  Telemetry.incr t.tel_undos;
  Bor_lfsr.Lfsr.shift_back t.lfsr ~recovered_msb:shifted_out

let lfsr t = t.lfsr
