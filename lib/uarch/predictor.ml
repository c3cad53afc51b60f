module Telemetry = Bor_telemetry.Telemetry

(* The three tables hold one 2-bit counter per byte: an [int array]
   would be eight times the size, and every create, checkpoint capture
   and restore copies or scans all of it. *)
type t = {
  gshare : Bytes.t;  (** 2-bit counters, 2^ghist_bits entries *)
  bimodal : Bytes.t;
  chooser : Bytes.t;  (** 2-bit: >=2 prefers gshare *)
  ghist_mask : int;
  bimodal_mask : int;  (** entries - 1 *)
  snap_shift : int;  (** bit offset of the history snapshot in a packed prediction *)
  mutable ghist : int;
  tel_predictions : Telemetry.counter;
  tel_gshare_chosen : Telemetry.counter;
  tel_bimodal_chosen : Telemetry.counter;
  tel_updates : Telemetry.counter;
  tel_recoveries : Telemetry.counter;
}

(* A prediction is a single immediate int (the fetch queue and the ROB
   store one per in-flight branch; a record would cost an allocation
   per fetched branch):
   bit 0 = overall direction, bit 1 = gshare's vote, bit 2 = bimodal's
   vote, then [ghist_bits] of gshare index (computed pre-shift, for
   training), then the global-history snapshot (for recovery). *)
type prediction = int

let taken (p : prediction) = p land 1 <> 0

let none : prediction = 0

let create ?reuse (c : Config.t) =
  if not (Bor_util.Bits.is_power_of_two c.bimodal_entries) then
    invalid_arg "Predictor.create: bimodal_entries must be a power of two";
  let sc = Telemetry.scope "predictor" in
  let table = Region.table ?reuse in
  {
    gshare = table (fun t -> t.gshare) (1 lsl c.ghist_bits) '\001';
    bimodal = table (fun t -> t.bimodal) c.bimodal_entries '\001';
    chooser = table (fun t -> t.chooser) c.bimodal_entries '\002';
    ghist_mask = Bor_util.Bits.mask c.ghist_bits;
    bimodal_mask = c.bimodal_entries - 1;
    snap_shift = 3 + c.ghist_bits;
    ghist = 0;
    tel_predictions =
      Telemetry.counter sc ~doc:"fetch-stage direction predictions"
        "predictions";
    tel_gshare_chosen =
      Telemetry.counter sc ~doc:"predictions where the chooser picked gshare"
        "gshare_chosen";
    tel_bimodal_chosen =
      Telemetry.counter sc ~doc:"predictions where the chooser picked bimodal"
        "bimodal_chosen";
    tel_updates =
      Telemetry.counter sc ~doc:"table trainings at resolution" "updates";
    tel_recoveries =
      Telemetry.counter sc ~doc:"global-history repairs after a squash"
        "recoveries";
  }

let gshare_index t pc = ((pc lsr 2) lxor t.ghist) land t.ghist_mask

let bimodal_index t pc = (pc lsr 2) land t.bimodal_mask

let[@inline] get a i = Char.code (Bytes.get a i)
let[@inline] counter_taken a i = get a i >= 2

let bump a i taken =
  let v = get a i in
  if taken then (if v < 3 then Bytes.set a i (Char.unsafe_chr (v + 1)))
  else if v > 0 then Bytes.set a i (Char.unsafe_chr (v - 1))

let predict t ~pc =
  let gi = gshare_index t pc in
  let bi = bimodal_index t pc in
  let use_gshare = counter_taken t.chooser bi in
  Telemetry.incr t.tel_predictions;
  Telemetry.incr
    (if use_gshare then t.tel_gshare_chosen else t.tel_bimodal_chosen);
  let g = counter_taken t.gshare gi in
  let b = counter_taken t.bimodal bi in
  let dir = if use_gshare then g else b in
  let snapshot = t.ghist in
  t.ghist <- ((t.ghist lsl 1) lor Bool.to_int dir) land t.ghist_mask;
  Bool.to_int dir
  lor (Bool.to_int g lsl 1)
  lor (Bool.to_int b lsl 2)
  lor (gi lsl 3)
  lor (snapshot lsl t.snap_shift)

let update t ~pc (p : prediction) ~taken =
  Telemetry.incr t.tel_updates;
  let gi = (p lsr 3) land t.ghist_mask in
  let g = (p lsr 1) land 1 = 1 in
  let b = (p lsr 2) land 1 = 1 in
  let bi = bimodal_index t pc in
  bump t.gshare gi taken;
  bump t.bimodal bi taken;
  if g <> b then bump t.chooser bi (g = taken)

let recover t (p : prediction) ~taken =
  Telemetry.incr t.tel_recoveries;
  t.ghist <- (((p lsr t.snap_shift) lsl 1) lor Bool.to_int taken) land t.ghist_mask

let ghist t = t.ghist
let restore_ghist t h = t.ghist <- h land t.ghist_mask

let regions =
  Region.
    [
      Scalar ("ghist", ghist, restore_ghist);
      Table ("gshare", Counters, fun t -> t.gshare);
      Table ("bimodal", Counters, fun t -> t.bimodal);
      Table ("chooser", Counters, fun t -> t.chooser);
    ]

(* One byte per counter, then a separator per table: the same bytes the
   digest has always hashed. *)
let state_digest t =
  let b = Buffer.create (Bytes.length t.gshare * 2) in
  let dump a =
    Buffer.add_bytes b a;
    Buffer.add_char b '|'
  in
  dump t.gshare;
  dump t.bimodal;
  dump t.chooser;
  Buffer.add_string b (string_of_int t.ghist);
  Bor_telemetry.Sha256.digest (Buffer.contents b)
