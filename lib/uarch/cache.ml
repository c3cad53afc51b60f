type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
}

(* The tag and LRU stores are raw bytes, one 8-byte native-endian word
   per way, rather than [int array]s: capturing, restoring and refilling
   them (every checkpoint and every [create ~reuse]) is then one
   memcpy or memset, where an array blit or fill into a store on the
   major heap goes through the write barrier word by word. *)
type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;  (** log2 line_bytes *)
  sets_shift : int;  (** log2 sets *)
  tags : Bytes.t;  (** way [set * assoc + w]; -1 = invalid *)
  lru : Bytes.t;  (** smaller = older *)
  mutable clock : int;
  stats : stats;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Unchecked: every way index below is [set * assoc + w] with
   [set < sets] and [w < assoc], inside the [sets * assoc] words. *)
let[@inline] word b i = Int64.to_int (get64 b (i lsl 3))
let[@inline] set_word b i v = set64 b (i lsl 3) (Int64.of_int v)

let create ?reuse ?(name = "cache") ~size ~assoc ~line_bytes () =
  if size <= 0 || assoc <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create";
  if not (Bor_util.Bits.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let lines = size / line_bytes in
  if lines mod assoc <> 0 then invalid_arg "Cache.create: geometry";
  let sets = lines / assoc in
  if not (Bor_util.Bits.is_power_of_two sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let log2 n = Option.get (Bor_util.Bits.log2_exact n) in
  let bytes = 8 * sets * assoc in
  {
    name;
    sets;
    assoc;
    line_bytes;
    line_shift = log2 line_bytes;
    sets_shift = log2 sets;
    (* -1 is all ones in either byte order. *)
    tags = Region.table ?reuse (fun t -> t.tags) bytes '\xff';
    lru = Region.table ?reuse (fun t -> t.lru) bytes '\000';
    clock = 0;
    stats = { accesses = 0; misses = 0; evictions = 0 };
  }

(* The hot path avoids divisions (the geometry is all powers of two)
   and allocation. *)

let line_of t addr = addr lsr t.line_shift

(* The ways of set [s] are the words [s * assoc] up to
   [(s + 1) * assoc]; [key] is the tag as a raw word, converted once
   rather than per way. A [while] with a mutable index: a local
   [let rec] would cost a closure allocation per call on the
   non-flambda compiler. [access] runs the same scan inline rather
   than calling [find]: on an L1 hit the call costs more than the
   scan. *)
let find t set key =
  let stop = (set + 1) * t.assoc in
  let w = ref (set * t.assoc) in
  while !w < stop && get64 t.tags (!w lsl 3) <> key do
    incr w
  done;
  !w < stop

let probe t addr =
  let line = line_of t addr in
  find t (line land (t.sets - 1)) (Int64.of_int (line lsr t.sets_shift))

let access t addr =
  let line = line_of t addr in
  let set = line land (t.sets - 1) in
  let key = Int64.of_int (line lsr t.sets_shift) in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let base = set * t.assoc in
  let stop = base + t.assoc in
  let w = ref base in
  while !w < stop && get64 t.tags (!w lsl 3) <> key do
    incr w
  done;
  if !w < stop then begin
    set_word t.lru !w t.clock;
    true
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    (* The victim is the way with the smallest stamp, the lowest on a
       tie. *)
    let victim = ref base and oldest = ref (word t.lru base) in
    for w = base + 1 to stop - 1 do
      let stamp = word t.lru w in
      if stamp < !oldest then begin
        victim := w;
        oldest := stamp
      end
    done;
    if word t.tags !victim >= 0 then t.stats.evictions <- t.stats.evictions + 1;
    set64 t.tags (!victim lsl 3) key;
    set_word t.lru !victim t.clock;
    false
  end

let stats t = t.stats

(* Sanitizer pass over the tag store. O(sets * assoc^2): the quadratic
   factor is over associativity only (<= 8 in every configuration we
   build), the linear one is what makes checking L2 every cycle too
   expensive — Pipeline runs this on its slow periodic tier. *)
let check ?cycle t =
  let module Check = Bor_check.Check in
  let component = "cache." ^ t.name in
  let fail inv fmt = Check.fail ?cycle ~component ~invariant:inv fmt in
  if t.stats.accesses < 0 || t.stats.misses < 0 then
    fail "stats-nonnegative" "accesses=%d misses=%d" t.stats.accesses
      t.stats.misses;
  if t.stats.misses > t.stats.accesses then
    fail "misses-bounded" "misses=%d > accesses=%d" t.stats.misses
      t.stats.accesses;
  if t.stats.evictions < 0 || t.stats.evictions > t.stats.misses then
    fail "evictions-bounded" "evictions=%d, misses=%d" t.stats.evictions
      t.stats.misses;
  for set = 0 to t.sets - 1 do
    let base = set * t.assoc in
    for w = 0 to t.assoc - 1 do
      let tag = word t.tags (base + w) in
      if tag >= 0 then begin
        (* A duplicated tag inside one set means [find] resolves
           arbitrarily — hits would depend on way scan order. *)
        for w' = w + 1 to t.assoc - 1 do
          if word t.tags (base + w') = tag then
            fail "distinct-tags" "set %d holds tag %d in ways %d and %d" set
              tag w w'
        done;
        let stamp = word t.lru (base + w) in
        if stamp < 0 || stamp > t.clock then
          fail "lru-stamp-range" "set %d way %d: LRU stamp %d outside [0,%d]"
            set w stamp t.clock;
        (* Distinct stamps on valid ways keep LRU victim choice
           deterministic (ties would fall back to lowest way index). *)
        for w' = w + 1 to t.assoc - 1 do
          if word t.tags (base + w') >= 0 && word t.lru (base + w') = stamp
             && stamp > 0
          then
            fail "lru-distinct" "set %d ways %d and %d share LRU stamp %d" set
              w w' stamp
        done
      end
    done
  done;
  Check.count (t.sets * t.assoc)

let regions =
  Region.
    [
      Scalar ("clock", (fun t -> t.clock), fun t v -> t.clock <- v);
      Table ("tags", Words, fun t -> t.tags);
      Table ("lru", Words, fun t -> t.lru);
    ]

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.misses <- 0;
  t.stats.evictions <- 0

let sets t = t.sets

(* The resident-line digest deliberately excludes recency (the [lru]
   clock values): functional warming collapses consecutive same-line
   touches and skips wrong-path fetches, which perturbs clocks but —
   absent capacity evictions — not which lines are resident. Sorting
   the valid tags of each set also removes way-placement order. *)
let state_digest t =
  let b = Buffer.create (t.sets * 8) in
  let ways = Array.make t.assoc 0 in
  for set = 0 to t.sets - 1 do
    let base = set * t.assoc in
    let n = ref 0 in
    for w = 0 to t.assoc - 1 do
      let tag = word t.tags (base + w) in
      if tag >= 0 then begin
        ways.(!n) <- tag;
        incr n
      end
    done;
    let live = Array.sub ways 0 !n in
    Array.sort compare live;
    Buffer.add_string b (string_of_int set);
    Array.iter
      (fun tag ->
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int tag))
      live;
    Buffer.add_char b ';'
  done;
  Bor_telemetry.Sha256.digest (Buffer.contents b)
