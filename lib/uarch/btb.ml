module Telemetry = Bor_telemetry.Telemetry

(* Tags and targets are raw bytes, one 8-byte native-endian word per
   entry, for the reason [Cache] gives: a checkpoint capture or restore
   and a [create ~reuse] refill are then one memcpy or memset each. *)
type t = {
  tags : Bytes.t;  (** entry pc; -1 = invalid *)
  targets : Bytes.t;
  mask : int;  (** entries - 1 *)
  tel_lookups : Telemetry.counter;
  tel_hits : Telemetry.counter;
  tel_inserts : Telemetry.counter;
  tel_alias_evictions : Telemetry.counter;
}

let create ?reuse ~entries () =
  if entries <= 0 || not (Bor_util.Bits.is_power_of_two entries) then
    invalid_arg "Btb.create";
  let sc = Telemetry.scope "btb" in
  (* -1 is all ones in either byte order. *)
  { tags = Region.table ?reuse (fun t -> t.tags) (8 * entries) '\xff';
    targets = Region.table ?reuse (fun t -> t.targets) (8 * entries) '\000';
    mask = entries - 1;
    tel_lookups = Telemetry.counter sc ~doc:"fetch-stage target lookups" "lookups";
    tel_hits = Telemetry.counter sc ~doc:"lookups returning a target" "hits";
    tel_inserts = Telemetry.counter sc ~doc:"targets installed at resolution" "inserts";
    tel_alias_evictions =
      Telemetry.counter sc ~doc:"inserts displacing a different pc" "alias_evictions" }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Unchecked: every index below is masked into [0, entries). *)
let[@inline] word b i = Int64.to_int (get64 b (i lsl 3))
let[@inline] set_word b i v = set64 b (i lsl 3) (Int64.of_int v)
let[@inline] slot t pc = (pc lsr 2) land t.mask

(* [lookup_target] is the hot-path variant: -1 instead of [None] so
   the fetch stage never allocates an option. *)
let lookup_target t ~pc =
  Telemetry.incr t.tel_lookups;
  let i = slot t pc in
  if word t.tags i = pc then begin
    Telemetry.incr t.tel_hits;
    word t.targets i
  end
  else -1

let lookup t ~pc =
  let g = lookup_target t ~pc in
  if g >= 0 then Some g else None

let insert t ~pc ~target =
  let i = slot t pc in
  Telemetry.incr t.tel_inserts;
  let old = word t.tags i in
  if old >= 0 && old <> pc then Telemetry.incr t.tel_alias_evictions;
  set_word t.tags i pc;
  set_word t.targets i target

let regions =
  Region.[ Table ("tags", Words, fun t -> t.tags);
           Table ("targets", Words, fun t -> t.targets) ]

let state_digest t =
  let b = Buffer.create (Bytes.length t.tags) in
  for i = 0 to t.mask do
    let tag = word t.tags i in
    if tag >= 0 then begin
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int tag);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int (word t.targets i));
      Buffer.add_char b ';'
    end
  done;
  Bor_telemetry.Sha256.digest (Buffer.contents b)
