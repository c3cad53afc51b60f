type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bytes : int;
  line_shift : int;  (** log2 line_bytes *)
  sets_shift : int;  (** log2 sets *)
  tags : int array;  (** [set * assoc + way]; -1 = invalid *)
  lru : int array;  (** smaller = older *)
  mutable clock : int;
  stats : stats;
}

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
  let n = sets * assoc in
  let tags, lru =
    match reuse with
    | Some old when Array.length old.tags = n ->
      Array.fill old.tags 0 n (-1);
      Array.fill old.lru 0 n 0;
      (old.tags, old.lru)
    | _ -> (Array.make n (-1), Array.make n 0)
  in
  {
    name;
    sets;
    assoc;
    line_bytes;
    line_shift = log2 line_bytes;
    sets_shift = log2 sets;
    tags;
    lru;
    clock = 0;
    stats = { accesses = 0; misses = 0; evictions = 0 };
  }

(* The hot path avoids divisions (the geometry is all powers of two)
   and allocation: [find] yields a slot index, -1 on a miss. *)

let line_of t addr = addr lsr t.line_shift

(* A [while] with a mutable index: a local [let rec] would cost a
   closure allocation per call on the non-flambda compiler. *)
let find t set tag =
  let base = set * t.assoc in
  let tags = t.tags in
  let w = ref 0 in
  let slot = ref (-1) in
  while !slot < 0 && !w < t.assoc do
    if Array.unsafe_get tags (base + !w) = tag then slot := base + !w
    else incr w
  done;
  !slot

let probe t addr =
  let line = line_of t addr in
  find t (line land (t.sets - 1)) (line lsr t.sets_shift) >= 0

let access t addr =
  let line = line_of t addr in
  let set = line land (t.sets - 1) in
  let tag = line lsr t.sets_shift in
  t.clock <- t.clock + 1;
  t.stats.accesses <- t.stats.accesses + 1;
  let slot = find t set tag in
  if slot >= 0 then begin
    t.lru.(slot) <- t.clock;
    true
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let base = set * t.assoc in
    let victim = ref base in
    for w = 1 to t.assoc - 1 do
      if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
    done;
    if t.tags.(!victim) >= 0 then t.stats.evictions <- t.stats.evictions + 1;
    t.tags.(!victim) <- tag;
    t.lru.(!victim) <- t.clock;
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
      let tag = t.tags.(base + w) in
      if tag >= 0 then begin
        (* A duplicated tag inside one set means [find] resolves
           arbitrarily — hits would depend on way scan order. *)
        for w' = w + 1 to t.assoc - 1 do
          if t.tags.(base + w') = tag then
            fail "distinct-tags" "set %d holds tag %d in ways %d and %d" set
              tag w w'
        done;
        let stamp = t.lru.(base + w) in
        if stamp < 0 || stamp > t.clock then
          fail "lru-stamp-range" "set %d way %d: LRU stamp %d outside [0,%d]"
            set w stamp t.clock;
        (* Distinct stamps on valid ways keep LRU victim choice
           deterministic (ties would fall back to lowest way index). *)
        for w' = w + 1 to t.assoc - 1 do
          if t.tags.(base + w') >= 0 && t.lru.(base + w') = stamp && stamp > 0
          then
            fail "lru-distinct" "set %d ways %d and %d share LRU stamp %d" set
              w w' stamp
        done
      end
    done
  done;
  Check.count (t.sets * t.assoc)

type state = { s_tags : int array; s_lru : int array; s_clock : int }

let export_state t =
  { s_tags = Array.copy t.tags; s_lru = Array.copy t.lru; s_clock = t.clock }

let import_state t s =
  if
    Array.length s.s_tags <> Array.length t.tags
    || Array.length s.s_lru <> Array.length t.lru
  then invalid_arg ("Cache.import_state: geometry mismatch on " ^ t.name);
  Array.blit s.s_tags 0 t.tags 0 (Array.length t.tags);
  Array.blit s.s_lru 0 t.lru 0 (Array.length t.lru);
  t.clock <- s.s_clock

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
      let tag = t.tags.(base + w) in
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
