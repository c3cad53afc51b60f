module Telemetry = Bor_telemetry.Telemetry

type t = {
  tags : int array;
  targets : int array;
  tel_lookups : Telemetry.counter;
  tel_hits : Telemetry.counter;
  tel_inserts : Telemetry.counter;
  tel_alias_evictions : Telemetry.counter;
}

let create ?reuse ~entries () =
  if entries <= 0 || not (Bor_util.Bits.is_power_of_two entries) then
    invalid_arg "Btb.create";
  let sc = Telemetry.scope "btb" in
  let tags, targets =
    match reuse with
    | Some old when Array.length old.tags = entries ->
      Array.fill old.tags 0 entries (-1);
      Array.fill old.targets 0 entries 0;
      (old.tags, old.targets)
    | _ -> (Array.make entries (-1), Array.make entries 0)
  in
  { tags; targets;
    tel_lookups = Telemetry.counter sc ~doc:"fetch-stage target lookups" "lookups";
    tel_hits = Telemetry.counter sc ~doc:"lookups returning a target" "hits";
    tel_inserts = Telemetry.counter sc ~doc:"targets installed at resolution" "inserts";
    tel_alias_evictions =
      Telemetry.counter sc ~doc:"inserts displacing a different pc" "alias_evictions" }

let slot t pc = (pc lsr 2) land (Array.length t.tags - 1)

(* [lookup_target] is the hot-path variant: -1 instead of [None] so
   the fetch stage never allocates an option. *)
let lookup_target t ~pc =
  Telemetry.incr t.tel_lookups;
  let i = slot t pc in
  if t.tags.(i) = pc then begin
    Telemetry.incr t.tel_hits;
    t.targets.(i)
  end
  else -1

let lookup t ~pc =
  let g = lookup_target t ~pc in
  if g >= 0 then Some g else None

let insert t ~pc ~target =
  let i = slot t pc in
  Telemetry.incr t.tel_inserts;
  if t.tags.(i) >= 0 && t.tags.(i) <> pc then
    Telemetry.incr t.tel_alias_evictions;
  t.tags.(i) <- pc;
  t.targets.(i) <- target

type state = { s_tags : int array; s_targets : int array }

let export_state t =
  { s_tags = Array.copy t.tags; s_targets = Array.copy t.targets }

let import_state t s =
  if
    Array.length s.s_tags <> Array.length t.tags
    || Array.length s.s_targets <> Array.length t.targets
  then invalid_arg "Btb.import_state: entry-count mismatch";
  Array.blit s.s_tags 0 t.tags 0 (Array.length t.tags);
  Array.blit s.s_targets 0 t.targets 0 (Array.length t.targets)

let state_digest t =
  let b = Buffer.create (Array.length t.tags * 8) in
  Array.iteri
    (fun i tag ->
      if tag >= 0 then begin
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int tag);
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int t.targets.(i));
        Buffer.add_char b ';'
      end)
    t.tags;
  Bor_telemetry.Sha256.digest (Buffer.contents b)
