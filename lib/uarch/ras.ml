module Telemetry = Bor_telemetry.Telemetry

(* The stack (and every snapshot of it) is raw bytes, 8 per entry in
   native order, rather than an [int array]: a snapshot is saved at
   every fetched branch and restored at every squash, and a [Bytes.blit]
   is one memmove wherever the two buffers live, while an array blit
   into a buffer on the major heap (a pooled snapshot, a stack that
   survived a minor GC) goes through the write barrier per element. *)
type t = {
  stack : Bytes.t;
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
  { stack = Bytes.make (8 * entries) '\000';
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

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] get b i = Int64.to_int (get64 b (8 * i))
let[@inline] set b i v = set64 b (8 * i) (Int64.of_int v)
let entries t = t.mask + 1

(* Wrap indices with a mask: push/pop are on the warming and fetch hot
   paths, and [mod] is a hardware divide. *)
let[@inline] wrap t i = i land t.mask

let push t v =
  if t.depth = entries t then Telemetry.incr t.tel_overflows;
  Telemetry.incr t.tel_pushes;
  set t.stack t.top v;
  t.top <- wrap t (t.top + 1);
  t.depth <- min (t.depth + 1) (entries t)

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
    t.top <- wrap t (t.top + entries t - 1);
    t.depth <- t.depth - 1;
    get t.stack t.top
  end

let pop t =
  let g = pop_target t in
  if g >= 0 then Some g else None

let depth t = t.depth

(* Snapshots are simulator bookkeeping (taken at fetch, restored on a
   squash), not architectural stack traffic: they bypass the telemetry
   counters on purpose. *)

type snapshot = {
  s_stack : Bytes.t;
  mutable s_top : int;
  mutable s_depth : int;
}

let blank_snapshots ?reuse t n =
  let len = Bytes.length t.stack in
  match reuse with
  | Some old
    when Array.length old = n
         && Array.for_all (fun s -> Bytes.length s.s_stack = len) old ->
    Array.iter
      (fun s ->
        Bytes.fill s.s_stack 0 len '\000';
        s.s_top <- 0;
        s.s_depth <- 0)
      old;
    old
  | _ ->
    Array.init n (fun _ ->
        { s_stack = Bytes.make len '\000'; s_top = 0; s_depth = 0 })

let save_into t s =
  Bytes.blit t.stack 0 s.s_stack 0 (Bytes.length t.stack);
  s.s_top <- t.top;
  s.s_depth <- t.depth

let restore t s =
  Bytes.blit s.s_stack 0 t.stack 0 (Bytes.length t.stack);
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
  check_shape ?cycle ~component:"ras" ~what:"stack" (entries t) t.top t.depth

let check_snapshot ?cycle s =
  check_shape ?cycle ~component:"ras" ~what:"snapshot"
    (Bytes.length s.s_stack / 8) s.s_top s.s_depth

let regions =
  Region.
    [
      Scalar ("top", (fun t -> t.top), fun t v -> t.top <- v);
      Scalar ("depth", depth, fun t v -> t.depth <- v);
      Table ("stack", Words, fun t -> t.stack);
    ]

let state_digest t =
  let b = Buffer.create (t.depth * 8) in
  Buffer.add_string b (string_of_int t.depth);
  for i = t.depth downto 1 do
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int (get t.stack (wrap t (t.top - i))))
  done;
  Bor_telemetry.Sha256.digest (Buffer.contents b)
