module Telemetry = Bor_telemetry.Telemetry

type t = {
  stack : int array;
  mask : int;  (** entries - 1 *)
  mutable top : int;
  mutable depth : int;
  tel_pushes : Telemetry.counter;
  tel_pops : Telemetry.counter;
  tel_underflows : Telemetry.counter;
  tel_overflows : Telemetry.counter;
}

let create ~entries =
  if not (Bor_util.Bits.is_power_of_two entries) then
    invalid_arg "Ras.create: entries must be a power of two";
  let sc = Telemetry.scope "ras" in
  { stack = Array.make entries 0;
    mask = entries - 1;
    top = 0; depth = 0;
    tel_pushes = Telemetry.counter sc ~doc:"call-site pushes" "pushes";
    tel_pops = Telemetry.counter sc ~doc:"successful return-target pops" "pops";
    tel_underflows =
      Telemetry.counter sc ~doc:"pops from an empty stack (no prediction)"
        "underflows";
    tel_overflows =
      Telemetry.counter sc ~doc:"pushes that wrapped, losing the oldest entry"
        "overflows" }

(* Wrap indices with a mask: push/pop are on the warming and fetch hot
   paths, and [mod] is a hardware divide. *)
let[@inline] wrap t i = i land t.mask

let push t v =
  if t.depth = Array.length t.stack then Telemetry.incr t.tel_overflows;
  Telemetry.incr t.tel_pushes;
  t.stack.(t.top) <- v;
  t.top <- wrap t (t.top + 1);
  t.depth <- min (t.depth + 1) (Array.length t.stack)

(* [pop_target] is the hot-path variant: -1 instead of [None] so the
   fetch stage never allocates an option (return addresses are always
   non-negative). *)
let pop_target t =
  if t.depth = 0 then begin
    Telemetry.incr t.tel_underflows;
    -1
  end
  else begin
    Telemetry.incr t.tel_pops;
    t.top <- wrap t (t.top + Array.length t.stack - 1);
    t.depth <- t.depth - 1;
    t.stack.(t.top)
  end

let pop t =
  let g = pop_target t in
  if g >= 0 then Some g else None

let depth t = t.depth

(* Snapshots are simulator bookkeeping (taken at fetch, restored on a
   squash), not architectural stack traffic: they bypass the telemetry
   counters on purpose. *)

type snapshot = {
  s_stack : int array;
  mutable s_top : int;
  mutable s_depth : int;
}

let blank_snapshot t =
  { s_stack = Array.make (Array.length t.stack) 0; s_top = 0; s_depth = 0 }

let save_into t s =
  Array.blit t.stack 0 s.s_stack 0 (Array.length t.stack);
  s.s_top <- t.top;
  s.s_depth <- t.depth

let restore t s =
  Array.blit s.s_stack 0 t.stack 0 (Array.length t.stack);
  t.top <- s.s_top;
  t.depth <- s.s_depth

let check_shape ?cycle ~component ~what len top depth =
  let module Check = Bor_check.Check in
  if top < 0 || top >= len then
    Check.fail ?cycle ~component ~invariant:"top-range"
      "%s top=%d outside [0,%d)" what top len;
  if depth < 0 || depth > len then
    Check.fail ?cycle ~component ~invariant:"depth-range"
      "%s depth=%d outside [0,%d]" what depth len;
  Check.count 2

let check ?cycle t =
  check_shape ?cycle ~component:"ras" ~what:"stack" (Array.length t.stack)
    t.top t.depth

let check_snapshot ?cycle s =
  check_shape ?cycle ~component:"ras" ~what:"snapshot"
    (Array.length s.s_stack) s.s_top s.s_depth

type state = { s_stack : int array; s_top : int; s_depth : int }

let export_state t =
  { s_stack = Array.copy t.stack; s_top = t.top; s_depth = t.depth }

let import_state t s =
  if Array.length s.s_stack <> Array.length t.stack then
    invalid_arg "Ras.import_state: entry-count mismatch";
  Array.blit s.s_stack 0 t.stack 0 (Array.length t.stack);
  t.top <- s.s_top;
  t.depth <- s.s_depth

let state_digest t =
  let b = Buffer.create (t.depth * 8) in
  Buffer.add_string b (string_of_int t.depth);
  for i = t.depth downto 1 do
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int t.stack.(wrap t (t.top - i)))
  done;
  Bor_telemetry.Sha256.digest (Buffer.contents b)
