type stats = {
  mutable cycles : int;
  mutable instructions : int;
  mutable cond_branches : int;
  mutable cond_mispredicts : int;
  mutable returns : int;
  mutable return_mispredicts : int;  (** RAS misses on correct-path returns *)
  mutable brr_executed : int;
  mutable brr_taken : int;
  mutable backend_flushes : int;
  mutable frontend_flushes : int;
  mutable predecode_redirects : int;
  mutable squashed : int;
  mutable loads : int;
  mutable stores : int;
  mutable cycles_fetch_full : int;
  mutable cycles_decode_starved : int;
  mutable cycles_rob_full : int;
  mutable rob_occupancy : int;
  mutable l1i_misses : int;
  mutable l1d_misses : int;
  mutable l2_misses : int;
  mutable fetch_slots : int;
  mutable fetch_icache_stalls : int;
  mutable decode_slots : int;
  mutable issue_slots : int;
  mutable commit_slots : int;
}

let fresh_stats () =
  {
    cycles = 0;
    instructions = 0;
    cond_branches = 0;
    cond_mispredicts = 0;
    returns = 0;
    return_mispredicts = 0;
    brr_executed = 0;
    brr_taken = 0;
    backend_flushes = 0;
    frontend_flushes = 0;
    predecode_redirects = 0;
    squashed = 0;
    loads = 0;
    stores = 0;
    cycles_fetch_full = 0;
    cycles_decode_starved = 0;
    cycles_rob_full = 0;
    rob_occupancy = 0;
    l1i_misses = 0;
    l1d_misses = 0;
    l2_misses = 0;
    fetch_slots = 0;
    fetch_icache_stalls = 0;
    decode_slots = 0;
    issue_slots = 0;
    commit_slots = 0;
  }

let ipc s = if s.cycles = 0 then 0. else Float.of_int s.instructions /. Float.of_int s.cycles

let branch_accuracy s =
  if s.cond_branches = 0 then 1.
  else 1. -. (Float.of_int s.cond_mispredicts /. Float.of_int s.cond_branches)

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>cycles %d, instructions %d (IPC %.2f)@,conditional branches %d, \
     mispredicts %d (%.2f%% accuracy)@,returns %d, RAS misses \
     %d@,branch-on-random %d executed / %d taken; %d front-end \
     flushes@,%d back-end flushes squashing %d; %d pre-decode \
     redirects@,loads %d, stores %d; L1I %d / L1D %d / L2 %d \
     misses@,fetch full %d cycles, decode starved %d, ROB-full %d, mean \
     ROB %.1f@]"
    s.cycles s.instructions (ipc s) s.cond_branches s.cond_mispredicts
    (100. *. branch_accuracy s)
    s.returns s.return_mispredicts s.brr_executed s.brr_taken s.frontend_flushes s.backend_flushes
    s.squashed s.predecode_redirects s.loads s.stores s.l1i_misses
    s.l1d_misses s.l2_misses s.cycles_fetch_full s.cycles_decode_starved
    s.cycles_rob_full
    (if s.cycles = 0 then 0.
     else Float.of_int s.rob_occupancy /. Float.of_int s.cycles)

(* ------------------------------------------------------------------ *)

module Telemetry = Bor_telemetry.Telemetry
module Check = Bor_check.Check

(* The record-backed telemetry families ([Telemetry.family]). pipeline.*
   has one [stats] field per counter: it stops at [marker 2] like the
   record, but [marker 1] publishes the pre-ROI prefix before resetting
   it, so the counters include the prefix. *)
let pipeline_counters =
  [|
    ("fetch.slots", "slots", "instructions fetched into the fetch queue",
     fun s -> s.fetch_slots);
    ("fetch.full_packets", "cycles", "cycles fetching a full packet",
     fun s -> s.cycles_fetch_full);
    ("fetch.icache_stalls", "events", "fetch stalls on an L1I miss",
     fun s -> s.fetch_icache_stalls);
    ("fetch.predecode_redirects", "events",
     "jal/j/brra fetch redirects via pre-decode",
     fun s -> s.predecode_redirects);
    ("decode.slots", "slots", "instructions decoded", fun s -> s.decode_slots);
    ("stall.decode_starved", "cycles", "cycles decode had nothing to do",
     fun s -> s.cycles_decode_starved);
    ("stall.rob_full", "cycles", "cycles decode blocked on a full ROB",
     fun s -> s.cycles_rob_full);
    ("issue.slots", "slots", "instructions issued to execution",
     fun s -> s.issue_slots);
    ("commit.slots", "slots", "instructions committed", fun s -> s.commit_slots);
    ("brr.resolved", "events", "branch-on-randoms resolved (correct path)",
     fun s -> s.brr_executed);
    ("brr.taken", "events", "branch-on-random resolutions that took",
     fun s -> s.brr_taken);
    ("flush.frontend", "events",
     "front-end flushes from taken branch-on-randoms",
     fun s -> s.frontend_flushes);
    ("flush.backend", "events", "back-end squashes from mispredictions",
     fun s -> s.backend_flushes);
    ("flush.squashed", "instructions",
     "wrong-path instructions removed by back-end squashes",
     fun s -> s.squashed);
    ("mispredict.cond", "events", "committed conditional-branch mispredictions",
     fun s -> s.cond_mispredicts);
    ("mispredict.return", "events", "committed returns the RAS mispredicted",
     fun s -> s.return_mispredicts);
    ("cycles", "cycles", "simulated cycles", fun s -> s.cycles);
  |]

(* ------------------------------------------------------------------ *)

(* The per-cycle core runs entirely over flat, preallocated rings: the
   fetch queue and the ROB are struct-of-arrays rings addressed by
   absolute monotonic positions ([head]/[tail] never wrap; slot =
   position land mask), so pops, squashes and occupancy checks are
   pointer arithmetic and the steady-state cycle loop allocates
   nothing.

   Sequence numbers stay globally monotonic (never reset), but
   wrong-path squashes leave gaps in the live sequence window —
   entries are therefore addressed by ring *position* everywhere: the
   rename (producer) table and the store-forwarding table hand out
   positions directly, so no seq->position search ever runs. This is
   sound because positions are absolute (never reused), and the only
   entries those tables can name are correct-path ones, which leave
   the ROB through commit alone.

   Dependencies are two/three intrusive position fields per entry plus
   a lazy scoreboard: [r_nwait] counts still-unissued producers and
   [r_ready_at] accumulates the max completion cycle of resolved ones.
   A dependency position below [rob_head] means the producer committed
   (positions below head are never reused); a live producer can never
   be squashed out from under a live consumer, because a squash only
   removes a contiguous youngest suffix and producers are strictly
   older. *)

(* Fetch-queue slot flags. *)
let fqf_pred = 1 (* slot carries a direction prediction *)
let fqf_ras = 2 (* slot carries a RAS snapshot *)

(* ROB slot flags. *)
let rf_wrong = 1
let rf_issued = 2
let rf_mispredict = 4
let rf_mem = 8
let rf_load = 16
let rf_store = 32
let rf_pred = 64 (* [r_pred] is valid *)
let rf_ras = 128 (* [r_ras] is valid *)
let rf_btaken = 256 (* actual direction of a resolved branch/brr *)

(* Branch kinds (the old [binfo] variant, flattened). *)
let k_none = 0
let k_cond = 1
let k_jalr = 2
let k_brr = 3

let reg_zero = Bor_isa.Reg.to_int Bor_isa.Reg.zero

type t = {
  cfg : Config.t;
  warm : Block.warm;  (* the oracle and the warmed structures *)
  pending_brr : bool option ref;  (* decode -> oracle outcome channel *)
  mutable cycle : int;
  mutable fetch_pc : int;  (* -1 = fetch lost (wrong path / stalled) *)
  mutable fetch_stall_until : int;
  (* Fetch queue: a struct-of-arrays ring. *)
  fq_mask : int;
  fq_pc : int array;
  fq_instr : Bor_isa.Instr.t array;
  fq_cycle : int array;
  fq_flags : int array;
  fq_pred : Predictor.prediction array;  (* valid iff fqf_pred *)
  fq_stream_next : int array;  (* where fetch went after this slot *)
  fq_ghist : int array;
  fq_ras : int array;  (* a [ras_pool] index; its buffer valid iff fqf_ras *)
  mutable fq_head : int;
  mutable fq_tail : int;
  (* ROB: a struct-of-arrays ring (fields mutable only for rob_grow). *)
  mutable rob_mask : int;
  mutable r_seq : int array;
  mutable r_epc : int array;
  mutable r_instr : Bor_isa.Instr.t array;
  mutable r_flags : int array;
  mutable r_kind : int array;
  mutable r_complete : int array;  (* -1 until execution completes *)
  mutable r_actual_next : int array;  (* correct-path successor, -1 *)
  mutable r_mem_addr : int array;  (* -1 when not a memory op *)
  mutable r_ghist : int array;
  mutable r_pred : Predictor.prediction array;  (* valid iff rf_pred *)
  mutable r_ras : int array;  (* a [ras_pool] index; valid iff rf_ras *)
  mutable ras_pool : Ras.snapshot array;
      (* one RAS snapshot buffer per fetch-queue and ROB slot, named by
         index: a slot hands its buffer on by swapping two ints, so the
         cycle loop never stores a pointer into a ring (see [create]) *)
  mutable r_dep0 : int array;  (* producer positions; -1 = free slot *)
  mutable r_dep1 : int array;
  mutable r_dep2 : int array;
  mutable r_nwait : int array;  (* outstanding producers *)
  mutable r_ready_at : int array;  (* max completion of resolved deps *)
  mutable rob_head : int;
  mutable rob_tail : int;
  mutable issue_scan : int;
  mutable idle_cycle : bool;
      (* no stage did anything in the cycle just simulated: the run
         loop may fast-forward to the next event (see [quiesce_skip]) *)
      (* every entry at a position below this has issued: the issue
         scan resumes here instead of at [rob_head]. Monotone except
         for squash truncation (clamped to the new tail). *)
  producer : int array;  (* arch reg -> producing ROB position, -1 = ready *)
  snap_producer : int array;
      (* pooled rename checkpoint, filled at decode of a mispredicted
         branch so the squash can restore mappings to still-in-flight
         older producers. A single buffer suffices: while a resolver is
         pending, every younger decode is wrong-path and never takes a
         checkpoint of its own. *)
  last_store : (int, int) Hashtbl.t;
  (* word address -> ROB position of the youngest in-flight store:
     loads take a dependency on it (store-to-load forwarding through
     the LSQ). Positions are absolute and never reused, and a
     correct-path store is never squashed (everything younger than a
     resolver is wrong-path and wrong-path memory ops never get here),
     so a stale entry always sits below [rob_head] = satisfied. *)
  mutable next_seq : int;
  mutable wrong_path_decode : bool;
  mutable resolver : int;  (* seq of the pending mispredicted branch, -1 *)
  mutable resolver_pos : int;  (* its ring position *)
  mutable spec_brr_log : Bytes.t;  (* banked shift-out bits, a stack *)
  mutable spec_brr_len : int;
  mutable halted_decoded : bool;
  mutable halt_committed : bool;
  mutable roi_frozen : bool;
  mutable committed : int;
      (* retired instructions, whole run ([resume_fetch] starts it at
         the oracle's count): [run_window]'s commit target *)
  mutable stats : stats;  (* replaced, not cleared, at [marker 1] *)
  tel : stats Telemetry.family;  (* pipeline.*, published from [stats] *)
  tel_occupancy : Telemetry.histogram;
  tel_run : Telemetry.span;
  (* Sanitizer bookkeeping (see [sanitize_cycle]), only touched under
     [!Check.on] or in already-rare paths (squash). *)
  mutable san_prev_head : int;
  mutable san_prev_tail : int;
  mutable san_tail_cut : bool;  (* a squash truncated the tail this cycle *)
  mutable san_last_commit_seq : int;
  mutable san_tick : int;
  mutable tracer : (trace_event -> unit) option;
}

and trace_event =
  | Commit of { cycle : int; pc : int; instr : Bor_isa.Instr.t }
  | Brr_resolved of { cycle : int; pc : int; taken : bool }
  | Front_flush of { cycle : int; target : int }
  | Back_flush of { cycle : int; resolver_pc : int; squashed : int }

let pow2_at_least n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let create ?(config = Config.default) ?reuse (program : Bor_isa.Program.t) =
  let pending_brr = ref None in
  let decide _freq =
    match !pending_brr with
    | Some outcome ->
      pending_brr := None;
      outcome
    | None ->
      failwith "Pipeline: oracle reached a brr without a timing decision"
  in
  let warm =
    Block.fresh_warm
      ?reuse:(Option.map (fun t -> t.warm) reuse)
      ~brr_mode:(Bor_sim.Machine.External decide) config program
  in
  let ras = warm.ras in
  let fq_cap = pow2_at_least (max 2 config.Config.fetch_queue) in
  (* Twice [rob_entries]: the brr-in-backend ablation admits
     branch-on-randoms past the ROB-full gate, so occupancy can
     transiently overshoot; [rob_grow] covers the pathological rest. *)
  let rob_cap = pow2_at_least (max 4 (2 * config.Config.rob_entries)) in
  (* [reuse]'s array of the same length, refilled with [v]; a new one
     otherwise (another geometry, or a ROB that [rob_grow] doubled).
     The two instruction rings are always new: they are the only rings
     the cycle loop stores pointers into, every fetch and decode, and a
     store into a reused array, which lives on the major heap, takes
     the write barrier's slow path (runs measured ~5% slower); a new
     one stays young for the whole run, since the loop allocates
     nothing. RAS snapshots move between the rings as [ras_pool]
     indices for the same reason. *)
  let ring field n v =
    match reuse with
    | Some old when Array.length (field old) = n ->
      let a = field old in
      Array.fill a 0 n v;
      a
    | _ -> Array.make n v
  in
  let ids field n first =
    let a = ring field n 0 in
    for i = 0 to n - 1 do
      a.(i) <- first + i
    done;
    a
  in
  let dummy_pred = Predictor.none in
  let nop = Bor_isa.Instr.Nop in
  {
    cfg = config;
    warm;
    pending_brr;
    cycle = 0;
    fetch_pc = program.entry;
    fetch_stall_until = 0;
    fq_mask = fq_cap - 1;
    fq_pc = ring (fun t -> t.fq_pc) fq_cap 0;
    fq_instr = Array.make fq_cap nop;
    fq_cycle = ring (fun t -> t.fq_cycle) fq_cap 0;
    fq_flags = ring (fun t -> t.fq_flags) fq_cap 0;
    fq_pred = ring (fun t -> t.fq_pred) fq_cap dummy_pred;
    fq_stream_next = ring (fun t -> t.fq_stream_next) fq_cap 0;
    fq_ghist = ring (fun t -> t.fq_ghist) fq_cap 0;
    fq_ras = ids (fun t -> t.fq_ras) fq_cap 0;
    fq_head = 0;
    fq_tail = 0;
    rob_mask = rob_cap - 1;
    r_seq = ring (fun t -> t.r_seq) rob_cap 0;
    r_epc = ring (fun t -> t.r_epc) rob_cap 0;
    r_instr = Array.make rob_cap nop;
    r_flags = ring (fun t -> t.r_flags) rob_cap 0;
    r_kind = ring (fun t -> t.r_kind) rob_cap k_none;
    r_complete = ring (fun t -> t.r_complete) rob_cap 0;
    r_actual_next = ring (fun t -> t.r_actual_next) rob_cap 0;
    r_mem_addr = ring (fun t -> t.r_mem_addr) rob_cap (-1);
    r_ghist = ring (fun t -> t.r_ghist) rob_cap 0;
    r_pred = ring (fun t -> t.r_pred) rob_cap dummy_pred;
    r_ras = ids (fun t -> t.r_ras) rob_cap fq_cap;
    ras_pool =
      Ras.blank_snapshots
        ?reuse:(Option.map (fun t -> t.ras_pool) reuse)
        ras (fq_cap + rob_cap);
    r_dep0 = ring (fun t -> t.r_dep0) rob_cap (-1);
    r_dep1 = ring (fun t -> t.r_dep1) rob_cap (-1);
    r_dep2 = ring (fun t -> t.r_dep2) rob_cap (-1);
    r_nwait = ring (fun t -> t.r_nwait) rob_cap 0;
    r_ready_at = ring (fun t -> t.r_ready_at) rob_cap 0;
    rob_head = 0;
    rob_tail = 0;
    issue_scan = 0;
    idle_cycle = false;
    producer = ring (fun t -> t.producer) Bor_isa.Reg.count (-1);
    snap_producer = ring (fun t -> t.snap_producer) Bor_isa.Reg.count (-1);
    last_store =
      (match reuse with
      | Some old ->
        Hashtbl.reset old.last_store;
        old.last_store
      | None -> Hashtbl.create 64);
    next_seq = 0;
    wrong_path_decode = false;
    resolver = -1;
    resolver_pos = -1;
    spec_brr_log = Bytes.create 64;
    spec_brr_len = 0;
    halted_decoded = false;
    halt_committed = false;
    roi_frozen = false;
    committed = 0;
    stats = fresh_stats ();
    tel = Telemetry.family (Telemetry.scope "pipeline") pipeline_counters;
    tel_occupancy =
      Telemetry.histogram (Telemetry.scope "pipeline") ~unit_:"entries"
        ~doc:"ROB occupancy, observed once per cycle" "rob.occupancy";
    tel_run =
      Telemetry.span (Telemetry.scope "pipeline") ~unit_:"cycles"
        ~doc:"whole simulated runs, in cycles" "run";
    san_prev_head = 0;
    san_prev_tail = 0;
    san_tail_cut = false;
    san_last_commit_seq = -1;
    san_tick = 0;
    tracer = None;
  }

let oracle t = t.warm.oracle
let warm t = t.warm
let config t = t.cfg

let set_tracer t f = t.tracer <- Some f
let roi t = not t.roi_frozen
let rob_occ t = t.rob_tail - t.rob_head

exception Sim_error of string

let sim_error fmt = Printf.ksprintf (fun m -> raise (Sim_error m)) fmt

let guard f =
  try f () with
  | Sim_error m -> Error m
  | Check.Violation v -> Error (Check.to_string v)
  | Bor_sim.Machine.Fault { pc; message } ->
    Error (Printf.sprintf "oracle fault at 0x%x: %s" pc message)
  | Bor_sim.Memory.Fault m -> Error m

(* ------------------------------------------------------- Sanitizer *)

let state_digests t = Block.state_digests t.warm

(* State dump attached to every violation: the warmed-state digests
   plus the pipeline scalars that localize a bug. *)
let san_state t =
  state_digests t
  @ [
      ( "rob",
        Printf.sprintf "head=%d tail=%d mask=%d issue_scan=%d" t.rob_head
          t.rob_tail t.rob_mask t.issue_scan );
      ("fq", Printf.sprintf "head=%d tail=%d" t.fq_head t.fq_tail);
      ( "spec",
        Printf.sprintf "next_seq=%d resolver=%d resolver_pos=%d \
                        wrong_path=%b spec_brr_len=%d"
          t.next_seq t.resolver t.resolver_pos t.wrong_path_decode
          t.spec_brr_len );
      ( "counts",
        Printf.sprintf "committed=%d oracle=%d" t.committed
          (Bor_sim.Machine.stats t.warm.oracle).Bor_sim.Machine.instructions );
    ]

let san_fail t ?pos ~invariant fmt =
  Check.fail ~cycle:t.cycle ?pos ~state:(san_state t) ~component:"pipeline"
    ~invariant fmt

(* Component [check]s raise without a state dump (they cannot see the
   pipeline); attach ours on the way out. *)
let san_enrich t f =
  try f ()
  with Check.Violation v when v.Check.state = [] ->
    raise (Check.Violation { v with Check.state = san_state t })

(* The sanitizer bodies are grouped here, away from their call sites,
   so the hot stage functions ([squash], [commit], [step_cycle]) stay
   contiguous in the emitted code; each call site pays only the
   [!Check.on] load-and-branch when the sanitizer is off. *)

let sanitize_squash t rp =
  if rp < t.rob_head || rp >= t.rob_tail then
    san_fail t ~pos:rp ~invariant:"squash-resolver-live"
      "squash point outside the live window [%d,%d)" t.rob_head t.rob_tail;
  if t.r_flags.(rp land t.rob_mask) land rf_wrong <> 0 then
    san_fail t ~pos:rp ~invariant:"squash-resolver-correct"
      "squashing relative to a wrong-path entry";
  for p = rp + 1 to t.rob_tail - 1 do
    if t.r_flags.(p land t.rob_mask) land rf_wrong = 0 then
      san_fail t ~pos:p ~invariant:"squash-only-wrong"
        "squash would remove a correct-path entry (resolver at %d)" rp
  done;
  Check.count (2 + t.rob_tail - rp - 1)

(* Per-retire sanitizer hook: retirement must follow sequence order
   (gaps are fine — squashes and decode-resolved branch-on-randoms
   consume sequence numbers that never retire), and the oracle the
   retired state was checked against must itself be sound. *)
let sanitize_commit t s epc =
  let seq = t.r_seq.(s) in
  if seq <= t.san_last_commit_seq then
    san_fail t ~pos:t.rob_head ~invariant:"commit-seq-order"
      "retiring seq %d after seq %d (pc 0x%x)" seq t.san_last_commit_seq epc;
  t.san_last_commit_seq <- seq;
  san_enrich t (fun () -> Bor_sim.Machine.check ~cycle:t.cycle t.warm.oracle);
  Check.count 1

(* The cheap tier, run at the end of every simulated cycle when the
   sanitizer is on: O(ROB occupancy + register count). The heavy tier
   (full cache tag walks, oracle register scan, store table) runs every
   1024th call — frequent enough to catch rot within a window, cheap
   enough that sanitized differential runs stay usable. *)
let sanitize_heavy t =
  san_enrich t (fun () ->
      Hierarchy.check ~cycle:t.cycle t.warm.hier;
      Ras.check ~cycle:t.cycle t.warm.ras;
      Bor_sim.Machine.check ~cycle:t.cycle t.warm.oracle);
  (* Every RAS snapshot buffer belongs to exactly one ring slot. *)
  let held = Array.make (Array.length t.ras_pool) false in
  let hold id =
    if id < 0 || id >= Array.length held || held.(id) then
      san_fail t ~invariant:"ras-buffer-owner"
        "RAS buffer %d held twice or out of range" id;
    held.(id) <- true
  in
  Array.iter hold t.fq_ras;
  Array.iter hold t.r_ras;
  if Array.length t.fq_ras + Array.length t.r_ras <> Array.length held then
    san_fail t ~invariant:"ras-buffer-owner" "%d RAS buffers for %d slots"
      (Array.length held)
      (Array.length t.fq_ras + Array.length t.r_ras);
  Hashtbl.iter
    (fun word pos ->
      if pos >= t.rob_tail then
        san_fail t ~pos ~invariant:"store-table-range"
          "last_store[%d] names position %d beyond tail %d" word pos
          t.rob_tail)
    t.last_store;
  let s = t.stats in
  if
    s.cycles < 0 || s.instructions < 0 || s.rob_occupancy < 0
    || s.squashed < 0
    || s.cond_mispredicts < 0
    || s.cond_mispredicts > s.cond_branches
    || s.return_mispredicts < 0
    || s.return_mispredicts > s.returns
    || s.brr_taken < 0
    || s.brr_taken > s.brr_executed
  then
    san_fail t ~invariant:"stats-consistent"
      "pipeline stats out of range: cycles=%d instructions=%d cond=%d/%d \
       ret=%d/%d brr=%d/%d squashed=%d occupancy=%d"
      s.cycles s.instructions s.cond_mispredicts s.cond_branches
      s.return_mispredicts s.returns s.brr_taken s.brr_executed s.squashed
      s.rob_occupancy;
  Check.count 3

let sanitize_cycle t =
  (* Ring shape and monotonicity. Head only advances (commit); the tail
     only recedes through a squash, which announces itself via
     [san_tail_cut]. *)
  if t.rob_head < 0 || t.rob_head > t.rob_tail then
    san_fail t ~invariant:"rob-shape" "head=%d tail=%d" t.rob_head t.rob_tail;
  if t.rob_tail - t.rob_head > t.rob_mask + 1 then
    san_fail t ~invariant:"rob-capacity" "occupancy %d exceeds ring size %d"
      (t.rob_tail - t.rob_head) (t.rob_mask + 1);
  if t.rob_head < t.san_prev_head then
    san_fail t ~invariant:"rob-head-monotone" "head moved back: %d -> %d"
      t.san_prev_head t.rob_head;
  if t.rob_tail < t.san_prev_tail && not t.san_tail_cut then
    san_fail t ~invariant:"rob-tail-monotone"
      "tail receded without a squash: %d -> %d" t.san_prev_tail t.rob_tail;
  t.san_prev_head <- t.rob_head;
  t.san_prev_tail <- t.rob_tail;
  t.san_tail_cut <- false;
  if t.fq_head < 0 || t.fq_head > t.fq_tail then
    san_fail t ~invariant:"fq-shape" "head=%d tail=%d" t.fq_head t.fq_tail;
  if t.fq_tail - t.fq_head > t.cfg.Config.fetch_queue then
    san_fail t ~invariant:"fq-capacity" "occupancy %d exceeds %d"
      (t.fq_tail - t.fq_head) t.cfg.Config.fetch_queue;
  if t.issue_scan > t.rob_tail then
    san_fail t ~invariant:"issue-scan-range" "issue_scan=%d beyond tail %d"
      t.issue_scan t.rob_tail;
  (* Resolver pairing: a pending resolver is live, carries its own seq,
     is itself correct-path and flagged mispredicted; conversely no
     wrong-path decode mode and no banked LFSR bits without one. *)
  if t.resolver >= 0 then begin
    if not t.wrong_path_decode then
      san_fail t ~invariant:"resolver-wrong-path"
        "resolver %d pending but wrong_path_decode is off" t.resolver;
    if t.resolver_pos < t.rob_head || t.resolver_pos >= t.rob_tail then
      san_fail t ~pos:t.resolver_pos ~invariant:"resolver-live"
        "resolver position outside [%d,%d)" t.rob_head t.rob_tail;
    let rs = t.resolver_pos land t.rob_mask in
    if t.r_seq.(rs) <> t.resolver then
      san_fail t ~pos:t.resolver_pos ~invariant:"resolver-seq"
        "slot holds seq %d, resolver is %d" t.r_seq.(rs) t.resolver;
    if t.r_flags.(rs) land rf_wrong <> 0 then
      san_fail t ~pos:t.resolver_pos ~invariant:"resolver-correct-path"
        "resolver entry is itself wrong-path";
    if t.r_flags.(rs) land rf_mispredict = 0 then
      san_fail t ~pos:t.resolver_pos ~invariant:"resolver-mispredict"
        "resolver entry lacks the mispredict flag"
  end
  else begin
    if t.wrong_path_decode then
      san_fail t ~invariant:"wrong-path-resolver"
        "wrong_path_decode set with no pending resolver";
    if t.spec_brr_len > 0 then
      san_fail t ~invariant:"spec-brr-resolver"
        "%d banked LFSR bits with no pending resolver" t.spec_brr_len
  end;
  (* Live-window scan: sequence order, wrong-path extent, scoreboard
     and completion consistency. *)
  let prev_seq = ref (-1) in
  let live_correct = ref 0 in
  let pos = ref t.rob_head in
  while !pos < t.rob_tail do
    let p = !pos in
    let s = p land t.rob_mask in
    let fl = t.r_flags.(s) in
    let seq = t.r_seq.(s) in
    if seq < 0 || seq >= t.next_seq then
      san_fail t ~pos:p ~invariant:"rob-seq-range"
        "seq %d outside [0,%d)" seq t.next_seq;
    if seq <= !prev_seq then
      san_fail t ~pos:p ~invariant:"rob-seq-order"
        "seq %d after %d" seq !prev_seq;
    prev_seq := seq;
    let wrong = fl land rf_wrong <> 0 in
    let past_resolver = t.resolver >= 0 && p > t.resolver_pos in
    if wrong && not past_resolver then
      san_fail t ~pos:p ~invariant:"wrong-path-extent"
        "wrong-path entry at or before the resolver";
    if (not wrong) && past_resolver then
      san_fail t ~pos:p ~invariant:"correct-past-resolver"
        "correct-path entry younger than the resolver";
    if not wrong then incr live_correct;
    let nw = t.r_nwait.(s) in
    let d0 = t.r_dep0.(s) and d1 = t.r_dep1.(s) and d2 = t.r_dep2.(s) in
    let slots =
      (if d0 >= 0 then 1 else 0)
      + (if d1 >= 0 then 1 else 0)
      + if d2 >= 0 then 1 else 0
    in
    if nw <> slots then
      san_fail t ~pos:p ~invariant:"nwait-count"
        "nwait=%d but %d occupied dependency slots (deps %d/%d/%d)" nw slots
        d0 d1 d2;
    if (d0 >= 0 && d0 >= p) || (d1 >= 0 && d1 >= p) || (d2 >= 0 && d2 >= p)
    then
      san_fail t ~pos:p ~invariant:"dep-older"
        "dependency not strictly older: deps %d/%d/%d" d0 d1 d2;
    if fl land rf_issued <> 0 then begin
      if t.r_complete.(s) < 0 then
        san_fail t ~pos:p ~invariant:"issued-complete"
          "issued entry with no completion cycle"
    end
    else begin
      if t.r_complete.(s) >= 0 then
        san_fail t ~pos:p ~invariant:"unissued-complete"
          "unissued entry already carries completion cycle %d"
          t.r_complete.(s);
      if p < t.issue_scan then
        san_fail t ~pos:p ~invariant:"issue-scan-prefix"
          "unissued entry below issue_scan=%d" t.issue_scan
    end;
    if fl land rf_ras <> 0 then
      san_enrich t (fun () -> Ras.check_snapshot ~cycle:t.cycle t.ras_pool.(t.r_ras.(s)));
    incr pos
  done;
  (* Rename table: every live mapping names a live producer whose
     instruction really writes that register. *)
  for r = 0 to Array.length t.producer - 1 do
    let pp = t.producer.(r) in
    if pp >= t.rob_tail then
      san_fail t ~pos:pp ~invariant:"producer-range"
        "producer of x%d beyond tail %d" r t.rob_tail;
    if pp >= t.rob_head then
      match Bor_isa.Instr.dest t.r_instr.(pp land t.rob_mask) with
      | Some rd when Bor_isa.Reg.to_int rd = r -> ()
      | Some rd ->
        san_fail t ~pos:pp ~invariant:"producer-dest"
          "producer of x%d writes x%d instead" r (Bor_isa.Reg.to_int rd)
      | None ->
        san_fail t ~pos:pp ~invariant:"producer-dest"
          "producer of x%d writes no register" r
  done;
  (* Oracle lockstep balance: every oracle step is accounted for by a
     retirement or a live correct-path entry. *)
  let oinsns =
    (Bor_sim.Machine.stats t.warm.oracle).Bor_sim.Machine.instructions
  in
  if oinsns <> t.committed + !live_correct then
    san_fail t ~invariant:"oracle-balance"
      "oracle ran %d instructions; committed %d + in-flight %d = %d" oinsns
      t.committed !live_correct
      (t.committed + !live_correct);
  Check.count (10 + (4 * (t.rob_tail - t.rob_head)) + Array.length t.producer);
  t.san_tick <- t.san_tick + 1;
  if t.san_tick land 1023 = 0 then sanitize_heavy t

let push_spec_brr t bank =
  let len = Bytes.length t.spec_brr_log in
  if t.spec_brr_len >= len then begin
    let grown = Bytes.create (2 * len) in
    Bytes.blit t.spec_brr_log 0 grown 0 len;
    t.spec_brr_log <- grown
  end;
  Bytes.unsafe_set t.spec_brr_log t.spec_brr_len
    (if bank then '\001' else '\000');
  t.spec_brr_len <- t.spec_brr_len + 1

(* --------------------------------------------------------------- Fetch *)

let is_return = function
  | Bor_isa.Instr.Jalr (rd, rs1, _) ->
    Bor_isa.Reg.equal rd Bor_isa.Reg.zero && Bor_isa.Reg.equal rs1 Bor_isa.Reg.ra
  | _ -> false

let fetch t =
  let fetched = ref 0 in
  let continue_ = ref true in
  while
    !continue_
    && !fetched < t.cfg.Config.fetch_width
    && t.fq_tail - t.fq_head < t.cfg.Config.fetch_queue
    && t.cycle >= t.fetch_stall_until
    && not t.halted_decoded
  do
    let pc = t.fetch_pc in
    if pc < 0 then continue_ := false
    else begin
      (* Instruction cache, single tag walk: -1 = L1 hit, otherwise the
         miss latency blocks the front end. *)
      let miss = Hierarchy.access_miss t.warm.hier Hierarchy.I pc in
      if miss >= 0 then begin
        t.fetch_stall_until <- t.cycle + miss;
        if roi t then
          t.stats.fetch_icache_stalls <- t.stats.fetch_icache_stalls + 1;
        continue_ := false
      end
      else begin
      let off = pc - t.warm.code_base in
      if off < 0 || off land 3 <> 0 || off lsr 2 >= Array.length t.warm.code
      then begin
        (* Wrong-path fetch wandered outside the text segment. *)
        t.fetch_pc <- -1;
        continue_ := false
      end
      else begin
        let instr = Array.unsafe_get t.warm.code (off lsr 2) in
        let slot = t.fq_tail land t.fq_mask in
        let ghist_at_fetch = Predictor.ghist t.warm.pred in
        let fall = pc + 4 in
        let flags = ref 0 in
        let stream_next =
          match instr with
          | Bor_isa.Instr.Jal (rd, joff) ->
            if Bor_isa.Reg.equal rd Bor_isa.Reg.ra then
              Ras.push t.warm.ras fall;
            if roi t then
              t.stats.predecode_redirects <- t.stats.predecode_redirects + 1;
            pc + (4 * joff)
          | Bor_isa.Instr.Brr_always joff ->
            if roi t then
              t.stats.predecode_redirects <- t.stats.predecode_redirects + 1;
            pc + (4 * joff)
          | Bor_isa.Instr.Jalr _ when is_return instr ->
            Ras.save_into t.warm.ras t.ras_pool.(t.fq_ras.(slot));
            flags := !flags lor fqf_ras;
            (* -1 (underflow) = no prediction: stall fetch *)
            Ras.pop_target t.warm.ras
          | Bor_isa.Instr.Jalr _ ->
            Ras.save_into t.warm.ras t.ras_pool.(t.fq_ras.(slot));
            flags := !flags lor fqf_ras;
            -1
          | Bor_isa.Instr.Brr _ when not t.cfg.Config.brr_in_predictor ->
            Ras.save_into t.warm.ras t.ras_pool.(t.fq_ras.(slot));
            flags := !flags lor fqf_ras;
            fall
          | Bor_isa.Instr.Branch _ | Bor_isa.Instr.Brr _ -> (
            (* A brr gets here only under the pollution ablation: it
               consults the direction predictor, shifts the global
               history and uses the BTB, like any conditional
               branch. *)
            Ras.save_into t.warm.ras t.ras_pool.(t.fq_ras.(slot));
            flags := !flags lor fqf_ras;
            let p = Predictor.predict t.warm.pred ~pc in
            t.fq_pred.(slot) <- p;
            flags := !flags lor fqf_pred;
            if Predictor.taken p then begin
              (* a BTB miss leaves a predicted-taken branch falling
                 through: no target known *)
              let target = Btb.lookup_target t.warm.btb ~pc in
              if target >= 0 then target else fall
            end
            else fall)
          | Bor_isa.Instr.Halt -> -1
          | _ -> fall
        in
        t.fq_pc.(slot) <- pc;
        t.fq_instr.(slot) <- instr;
        t.fq_cycle.(slot) <- t.cycle;
        t.fq_flags.(slot) <- !flags;
        t.fq_stream_next.(slot) <- stream_next;
        t.fq_ghist.(slot) <- ghist_at_fetch;
        t.fq_tail <- t.fq_tail + 1;
        incr fetched;
        if roi t then t.stats.fetch_slots <- t.stats.fetch_slots + 1;
        if stream_next = -1 then begin
          t.fetch_pc <- -1;
          continue_ := false
        end
        else begin
          t.fetch_pc <- stream_next;
          (* Fetch stops at any redirecting instruction. *)
          if stream_next <> fall then continue_ := false
        end
      end
      end
    end
  done;
  if !fetched > 0 then t.idle_cycle <- false;
  if !fetched = t.cfg.Config.fetch_width && roi t then
    t.stats.cycles_fetch_full <- t.stats.cycles_fetch_full + 1

(* -------------------------------------------------------------- Decode *)

let oracle_reg t r = Bor_sim.Machine.reg t.warm.oracle r

(* The rename-table snapshot copies (one per mispredicted branch at
   decode, one per squash). [Array.blit] does not know the elements
   are ints, and into a pooled pipeline's tables, which live on the
   major heap, it goes through [caml_modify] per word; a loop typed
   [int array] stores directly. Both tables are [Reg.count] long. *)
let blit_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let completes_at_decode (i : Bor_isa.Instr.t) =
  match i with
  | Bor_isa.Instr.Jal _ | Bor_isa.Instr.Brr_always _ | Bor_isa.Instr.Marker _
  | Bor_isa.Instr.Nop | Bor_isa.Instr.Halt | Bor_isa.Instr.Rdlfsr _ ->
    true
  | Bor_isa.Instr.Alu _ | Bor_isa.Instr.Alui _ | Bor_isa.Instr.Lui _
  | Bor_isa.Instr.Load _ | Bor_isa.Instr.Store _ | Bor_isa.Instr.Branch _
  | Bor_isa.Instr.Jalr _ | Bor_isa.Instr.Brr _ ->
    false

(* Record a dependency of the (not yet appended) entry in ROB slot
   [rslot] on the producer at ring position [dpos]. The producer and
   [last_store] tables hand out positions directly (positions are
   absolute and never reused, so no seq->position search is needed): a
   position below [rob_head] means the producer committed = already
   satisfied; an issued one only constrains the ready cycle; an
   unissued one occupies an intrusive dependency slot and bumps the
   outstanding count. *)
let add_dep_pos t rslot dpos =
  if dpos >= t.rob_head then begin
    let ds = dpos land t.rob_mask in
    let c = t.r_complete.(ds) in
    if c >= 0 then begin
      if c > t.r_ready_at.(rslot) then t.r_ready_at.(rslot) <- c
    end
    else begin
      if t.r_dep0.(rslot) < 0 then t.r_dep0.(rslot) <- dpos
      else if t.r_dep1.(rslot) < 0 then t.r_dep1.(rslot) <- dpos
      else t.r_dep2.(rslot) <- dpos;
      t.r_nwait.(rslot) <- t.r_nwait.(rslot) + 1
    end
  end

let add_reg_dep t rslot r =
  let p = t.producer.(r) in
  if p >= 0 then add_dep_pos t rslot p

(* Double the ROB ring. Positions are absolute, so live entries only
   move between slots; dependency references are unaffected. *)
let rob_grow t =
  let old_mask = t.rob_mask in
  let cap = 2 * (old_mask + 1) in
  let mask = cap - 1 in
  let seq = Array.make cap 0 in
  let epc = Array.make cap 0 in
  let instr = Array.make cap Bor_isa.Instr.Nop in
  let flags = Array.make cap 0 in
  let kind = Array.make cap k_none in
  let complete = Array.make cap 0 in
  let actual_next = Array.make cap 0 in
  let mem_addr = Array.make cap (-1) in
  let ghist = Array.make cap 0 in
  let pred = Array.make cap t.r_pred.(0) in
  let ras = Array.make cap (-1) in
  let dep0 = Array.make cap (-1) in
  let dep1 = Array.make cap (-1) in
  let dep2 = Array.make cap (-1) in
  let nwait = Array.make cap 0 in
  let ready_at = Array.make cap 0 in
  for pos = t.rob_head to t.rob_tail - 1 do
    let os = pos land old_mask and ns = pos land mask in
    seq.(ns) <- t.r_seq.(os);
    epc.(ns) <- t.r_epc.(os);
    instr.(ns) <- t.r_instr.(os);
    flags.(ns) <- t.r_flags.(os);
    kind.(ns) <- t.r_kind.(os);
    complete.(ns) <- t.r_complete.(os);
    actual_next.(ns) <- t.r_actual_next.(os);
    mem_addr.(ns) <- t.r_mem_addr.(os);
    ghist.(ns) <- t.r_ghist.(os);
    pred.(ns) <- t.r_pred.(os);
    ras.(ns) <- t.r_ras.(os);
    dep0.(ns) <- t.r_dep0.(os);
    dep1.(ns) <- t.r_dep1.(os);
    dep2.(ns) <- t.r_dep2.(os);
    nwait.(ns) <- t.r_nwait.(os);
    ready_at.(ns) <- t.r_ready_at.(os)
  done;
  (* Live entries keep their RAS buffers; every other slot takes one no
     slot holds: the old ring's free ones, then buffers new to the
     pool. *)
  let old_cap = old_mask + 1 and pooled = Array.length t.ras_pool in
  t.ras_pool <-
    Array.append t.ras_pool (Ras.blank_snapshots t.warm.ras (cap - old_cap));
  let spare = ref (List.init (cap - old_cap) (fun i -> pooled + i)) in
  for s = 0 to old_mask do
    if (s - t.rob_head) land old_mask >= t.rob_tail - t.rob_head then
      spare := t.r_ras.(s) :: !spare
  done;
  Array.iteri
    (fun ns id ->
      if id < 0 then
        match !spare with
        | free :: rest ->
          ras.(ns) <- free;
          spare := rest
        | [] -> assert false)
    ras;
  t.rob_mask <- mask;
  t.r_seq <- seq;
  t.r_epc <- epc;
  t.r_instr <- instr;
  t.r_flags <- flags;
  t.r_kind <- kind;
  t.r_complete <- complete;
  t.r_actual_next <- actual_next;
  t.r_mem_addr <- mem_addr;
  t.r_ghist <- ghist;
  t.r_pred <- pred;
  t.r_ras <- ras;
  t.r_dep0 <- dep0;
  t.r_dep1 <- dep1;
  t.r_dep2 <- dep2;
  t.r_nwait <- nwait;
  t.r_ready_at <- ready_at

(* A decode-stage redirect flushes the younger half of the front end;
   their speculative history updates and RAS motion must be unwound to
   the redirecting instruction's fetch point. [fslot] is the (already
   popped, still intact) fetch-queue slot of that instruction. *)
let frontend_redirect t fslot target =
  (match t.tracer with
  | None -> ()
  | Some f -> f (Front_flush { cycle = t.cycle; target }));
  t.fq_head <- t.fq_tail;
  Predictor.restore_ghist t.warm.pred t.fq_ghist.(fslot);
  if t.fq_flags.(fslot) land fqf_ras <> 0 then
    Ras.restore t.warm.ras t.ras_pool.(t.fq_ras.(fslot));
  t.fetch_pc <- target;
  t.fetch_stall_until <- t.cycle + 1

let decode_one t fslot =
  let open Bor_isa.Instr in
  let instr = t.fq_instr.(fslot) in
  let fpc = t.fq_pc.(fslot) in
  let fflags = t.fq_flags.(fslot) in
  (* Returns [true] if decode may continue this cycle. *)
  match instr with
  | Brr (freq, boff) when not t.cfg.Config.brr_resolve_in_backend ->
    let outcome, bank = Bor_core.Engine.decide_recorded t.warm.engine freq in
    if t.wrong_path_decode then begin
      if t.cfg.Config.deterministic_lfsr then push_spec_brr t bank;
      if outcome then begin
        (* Wrong-path front-end redirect: speculation within
           speculation, exactly what the hardware would do. *)
        frontend_redirect t fslot (fpc + (4 * boff));
        false
      end
      else true
    end
    else begin
      t.pending_brr := Some outcome;
      Bor_sim.Machine.step t.warm.oracle;
      if roi t then begin
        t.stats.brr_executed <- t.stats.brr_executed + 1;
        t.stats.instructions <- t.stats.instructions + 1;
        if outcome then t.stats.brr_taken <- t.stats.brr_taken + 1
      end;
      t.committed <- t.committed + 1;
      (match t.tracer with
      | None -> ()
      | Some f ->
        f (Brr_resolved { cycle = t.cycle; pc = fpc; taken = outcome }));
      let actual_next = if outcome then fpc + (4 * boff) else fpc + 4 in
      (* Pollution ablation: even though resolution stays in decode, the
         predictor tables, history and BTB see this branch. *)
      if fflags land fqf_pred <> 0 && t.cfg.Config.brr_in_predictor
      then begin
        Predictor.update t.warm.pred ~pc:fpc t.fq_pred.(fslot) ~taken:outcome;
        if outcome then Btb.insert t.warm.btb ~pc:fpc ~target:actual_next
      end;
      if t.fq_stream_next.(fslot) <> actual_next then begin
        if roi t then
          t.stats.frontend_flushes <- t.stats.frontend_flushes + 1;
        frontend_redirect t fslot actual_next;
        (* The flush rewound the history to this brr's fetch point; with
           the pollution ablation its own direction is then replayed. *)
        if fflags land fqf_pred <> 0 && t.cfg.Config.brr_in_predictor then
          Predictor.recover t.warm.pred t.fq_pred.(fslot) ~taken:outcome;
        false
      end
      else true
    end
  | _ ->
    (* Includes Brr under the backend-resolution ablation: the brr then
       occupies a ROB slot and resolves at execute like a conditional
       branch. *)
    let is_brr_i = match instr with Brr _ -> true | _ -> false in
    let brr_outcome = ref false in
    let brr_next = ref (-1) in
    (match instr with
    | Brr (freq, boff) ->
      let outcome, bank = Bor_core.Engine.decide_recorded t.warm.engine freq in
      if t.wrong_path_decode then begin
        if t.cfg.Config.deterministic_lfsr then push_spec_brr t bank
      end
      else begin
        t.pending_brr := Some outcome;
        if roi t then begin
          t.stats.brr_executed <- t.stats.brr_executed + 1;
          if outcome then t.stats.brr_taken <- t.stats.brr_taken + 1
        end;
        match t.tracer with
        | None -> ()
        | Some f ->
          f (Brr_resolved { cycle = t.cycle; pc = fpc; taken = outcome })
      end;
      brr_outcome := outcome;
      brr_next := (if outcome then fpc + (4 * boff) else fpc + 4)
    | _ -> ());
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if t.rob_tail - t.rob_head > t.rob_mask then rob_grow t;
    let rslot = t.rob_tail land t.rob_mask in
    t.r_dep0.(rslot) <- -1;
    t.r_dep1.(rslot) <- -1;
    t.r_dep2.(rslot) <- -1;
    t.r_nwait.(rslot) <- 0;
    t.r_ready_at.(rslot) <- 0;
    (* Register sources, mirroring [Instr.sources] (zero filtered). *)
    (match instr with
    | Alu (_, _, rs1, rs2) | Branch (_, rs1, rs2, _) | Store (_, rs1, rs2, _)
      ->
      let s1 = Bor_isa.Reg.to_int rs1 and s2 = Bor_isa.Reg.to_int rs2 in
      if s1 <> reg_zero then add_reg_dep t rslot s1;
      if s2 <> reg_zero then add_reg_dep t rslot s2
    | Alui (_, _, rs1, _) | Load (_, _, rs1, _) | Jalr (_, rs1, _) ->
      let s1 = Bor_isa.Reg.to_int rs1 in
      if s1 <> reg_zero then add_reg_dep t rslot s1
    | Lui _ | Jal _ | Brr _ | Brr_always _ | Rdlfsr _ | Marker _ | Halt
    | Nop ->
      ());
    let wrong_path = t.wrong_path_decode in
    (* Architectural outcome, fused with the oracle step: the memory
       address is read *before* stepping (a load may overwrite its own
       base register), then the next pc falls out of the oracle and a
       branch's direction out of its taken-counter delta — no second
       evaluation of the instruction's semantics. *)
    let actual_taken = ref false in
    let actual_next = ref (-1) in
    let mem_addr = ref (-1) in
    if wrong_path then ()
    else begin
      if Bor_sim.Machine.pc t.warm.oracle <> fpc then
        sim_error "timing/functional divergence: decode pc 0x%x, oracle 0x%x"
          fpc (Bor_sim.Machine.pc t.warm.oracle);
      if is_brr_i then begin
        (* Backend-resolution ablation: the recorded outcome is already
           in [pending_brr], which the oracle's decide hook replays. *)
        Bor_sim.Machine.step t.warm.oracle;
        actual_next := !brr_next
      end
      else begin
      (match instr with
      | Load (_, _, rs1, off) -> mem_addr := oracle_reg t rs1 + off
      | Store (_, _, rbase, off) -> mem_addr := oracle_reg t rbase + off
      | _ -> ());
      (match instr with
      | Branch _ ->
        let ost = Bor_sim.Machine.stats t.warm.oracle in
        let taken0 = ost.Bor_sim.Machine.cond_taken in
        Bor_sim.Machine.step t.warm.oracle;
        actual_taken := ost.Bor_sim.Machine.cond_taken > taken0
      | _ -> Bor_sim.Machine.step t.warm.oracle);
      (* For a halt the oracle pc does not advance; the stored
         next-pc of a non-redirecting instruction is never read. *)
        actual_next := Bor_sim.Machine.pc t.warm.oracle
      end
    end;
    let actual_taken = !actual_taken in
    let actual_next = !actual_next in
    let mem_addr = !mem_addr in
    (* Memory dependencies: a load waits for the youngest in-flight
       store to the same word (store-to-load forwarding); a store
       becomes the new youngest. *)
    if mem_addr >= 0 then begin
      let word = mem_addr asr 2 in
      match instr with
      | Store _ -> Hashtbl.replace t.last_store word t.rob_tail
      | _ -> (
        match Hashtbl.find_opt t.last_store word with
        | Some p -> add_dep_pos t rslot p
        | None -> ())
    end;
    let kind, bflags =
      if wrong_path then (k_none, 0)
      else
        match instr with
        | Branch _ ->
          if fflags land fqf_pred = 0 then
            sim_error "conditional branch without a prediction at pc 0x%x"
              fpc;
          (k_cond, rf_pred lor (if actual_taken then rf_btaken else 0))
        | Jalr _ -> (k_jalr, 0)
        | Brr _ ->
          ( k_brr,
            (if fflags land fqf_pred <> 0 then rf_pred else 0)
            lor (if !brr_outcome then rf_btaken else 0) )
        | _ -> (k_none, 0)
    in
    let mispredict =
      (not wrong_path)
      &&
      match instr with
      | Branch _ | Jalr _ | Brr _ -> t.fq_stream_next.(fslot) <> actual_next
      | _ -> false
    in
    (* The destination mapping must be installed before the rename
       checkpoint so a restore reflects this instruction too
       (mirroring [Instr.dest], zero filtered). *)
    (match instr with
    | Alu (_, rd, _, _)
    | Alui (_, rd, _, _)
    | Lui (rd, _)
    | Load (_, rd, _, _)
    | Jal (rd, _)
    | Jalr (rd, _, _)
    | Rdlfsr rd ->
      let rdi = Bor_isa.Reg.to_int rd in
      if rdi <> reg_zero then t.producer.(rdi) <- t.rob_tail
    | Store _ | Branch _ | Brr _ | Brr_always _ | Marker _ | Halt | Nop ->
      ());
    if mispredict then
      blit_ints t.producer t.snap_producer;
    let completes = completes_at_decode instr in
    t.r_seq.(rslot) <- seq;
    t.r_epc.(rslot) <- fpc;
    t.r_instr.(rslot) <- instr;
    t.r_kind.(rslot) <- kind;
    t.r_complete.(rslot) <- (if completes then t.cycle else -1);
    t.r_actual_next.(rslot) <- actual_next;
    t.r_mem_addr.(rslot) <- mem_addr;
    t.r_ghist.(rslot) <- t.fq_ghist.(fslot);
    if fflags land fqf_pred <> 0 then t.r_pred.(rslot) <- t.fq_pred.(fslot);
    let flags =
      bflags
      lor (if wrong_path then rf_wrong else 0)
      lor (if completes then rf_issued else 0)
      lor (if mispredict then rf_mispredict else 0)
      lor
      match instr with
      | Load _ -> rf_mem lor rf_load
      | Store _ -> rf_mem lor rf_store
      | _ -> 0
    in
    let flags =
      if fflags land fqf_ras <> 0 then begin
        (* Hand the pooled snapshot buffer over to the ROB slot (and
           take its old one back for the fetch queue): an index swap,
           no copy. *)
        let snap = t.fq_ras.(fslot) in
        t.fq_ras.(fslot) <- t.r_ras.(rslot);
        t.r_ras.(rslot) <- snap;
        flags lor rf_ras
      end
      else flags
    in
    t.r_flags.(rslot) <- flags;
    t.rob_tail <- t.rob_tail + 1;
    if mispredict then begin
      t.wrong_path_decode <- true;
      t.resolver <- seq;
      t.resolver_pos <- t.rob_tail - 1
    end;
    (match instr with
    | Halt when not wrong_path ->
      t.halted_decoded <- true;
      t.fetch_pc <- -1
    | _ -> ());
    true

let decode t =
  let decoded = ref 0 in
  let brr_decoded = ref 0 in
  let continue_ = ref true in
  while !continue_ && !decoded < t.cfg.Config.decode_width do
    if t.fq_head >= t.fq_tail then continue_ := false
    else begin
      let fslot = t.fq_head land t.fq_mask in
      let is_brr =
        match t.fq_instr.(fslot) with Bor_isa.Instr.Brr _ -> true | _ -> false
      in
      if t.fq_cycle.(fslot) + t.cfg.Config.decode_depth > t.cycle then
        continue_ := false
      else if
        (not is_brr) && t.rob_tail - t.rob_head >= t.cfg.Config.rob_entries
      then begin
        if roi t then t.stats.cycles_rob_full <- t.stats.cycles_rob_full + 1;
        continue_ := false
      end
      else if is_brr && !brr_decoded >= t.cfg.Config.lfsr_ports then
        (* Footnote 3: a shared LFSR arbitrates; the packet splits and
           the extra branch-on-randoms decode next cycle. *)
        continue_ := false
      else begin
        t.fq_head <- t.fq_head + 1;
        incr decoded;
        if roi t then t.stats.decode_slots <- t.stats.decode_slots + 1;
        if is_brr then incr brr_decoded;
        if not (decode_one t fslot) then continue_ := false
      end
    end
  done;
  if !decoded > 0 then t.idle_cycle <- false;
  if !decoded = 0 && roi t then
    t.stats.cycles_decode_starved <- t.stats.cycles_decode_starved + 1

(* --------------------------------------------------------------- Issue *)

let latency_of t s =
  let open Bor_isa.Instr in
  match t.r_instr.(s) with
  | Load _ ->
    if t.r_flags.(s) land rf_wrong <> 0 || t.r_mem_addr.(s) < 0 then
      t.cfg.Config.l1_latency
    else Hierarchy.access t.warm.hier Hierarchy.D t.r_mem_addr.(s)
  | Store _ ->
    if t.r_flags.(s) land rf_wrong = 0 && t.r_mem_addr.(s) >= 0 then
      ignore (Hierarchy.access t.warm.hier Hierarchy.D t.r_mem_addr.(s));
    1
  | Alu (Mul, _, _, _) -> t.cfg.Config.mul_latency
  | _ -> t.cfg.Config.alu_latency

(* True if the dependency at position [dpos] no longer blocks issue:
   committed (below head) or issued. An issued producer folds its
   completion cycle into the consumer's ready cycle. *)
let resolve_dep_slot t s dpos =
  if dpos < t.rob_head then true
  else begin
    let c = t.r_complete.(dpos land t.rob_mask) in
    if c >= 0 then begin
      if c > t.r_ready_at.(s) then t.r_ready_at.(s) <- c;
      true
    end
    else false
  end

let resolve_deps t s =
  let d0 = t.r_dep0.(s) in
  if d0 >= 0 && resolve_dep_slot t s d0 then begin
    t.r_dep0.(s) <- -1;
    t.r_nwait.(s) <- t.r_nwait.(s) - 1
  end;
  let d1 = t.r_dep1.(s) in
  if d1 >= 0 && resolve_dep_slot t s d1 then begin
    t.r_dep1.(s) <- -1;
    t.r_nwait.(s) <- t.r_nwait.(s) - 1
  end;
  let d2 = t.r_dep2.(s) in
  if d2 >= 0 && resolve_dep_slot t s d2 then begin
    t.r_dep2.(s) <- -1;
    t.r_nwait.(s) <- t.r_nwait.(s) - 1
  end

let issue t =
  let width = t.cfg.Config.issue_width in
  let ports = t.cfg.Config.mem_ports in
  let issued = ref 0 and mem = ref 0 in
  (* Entries below [issue_scan] have all issued; skip them wholesale
     instead of re-testing their flags every cycle. *)
  let start = if t.issue_scan > t.rob_head then t.issue_scan else t.rob_head in
  let pos = ref start in
  let tail = t.rob_tail in
  let scan = ref start in
  let scanning = ref true in
  while !issued < width && !pos < tail do
    let s = !pos land t.rob_mask in
    let fl = t.r_flags.(s) in
    if fl land rf_issued = 0 then begin
      if t.r_nwait.(s) > 0 then resolve_deps t s;
      if t.r_nwait.(s) = 0 && t.r_ready_at.(s) <= t.cycle then begin
        let is_mem = fl land rf_mem <> 0 in
        if not (is_mem && !mem >= ports) then begin
          t.r_flags.(s) <- fl lor rf_issued;
          t.r_complete.(s) <- t.cycle + latency_of t s;
          incr issued;
          if roi t then t.stats.issue_slots <- t.stats.issue_slots + 1;
          if is_mem then incr mem
        end
      end
    end;
    if !scanning then begin
      if t.r_flags.(s) land rf_issued <> 0 then scan := !pos + 1
      else scanning := false
    end;
    incr pos
  done;
  if !issued > 0 then t.idle_cycle <- false;
  t.issue_scan <- !scan

(* -------------------------------------------------------------- Squash *)

(* A squash must be a pure truncation of wrong-path state: everything
   it removes is younger than the resolver and flagged wrong-path.
   Anything else means the resolver machinery is about to destroy
   correct-path work. *)
let squash t rp =
  (* Remove everything younger than the resolver (at position [rp]):
     tail truncation. Squashed positions will be reallocated, but no
     surviving entry can reference one (producers are older than their
     consumers), and sequence numbers are never reused. *)
  if !Check.on then sanitize_squash t rp;
  t.san_tail_cut <- true;
  let rs = rp land t.rob_mask in
  let removed = t.rob_tail - (rp + 1) in
  t.idle_cycle <- false;
  t.rob_tail <- rp + 1;
  if t.issue_scan > t.rob_tail then t.issue_scan <- t.rob_tail;
  if t.r_flags.(rs) land rf_mispredict <> 0 then
    blit_ints t.snap_producer t.producer
  else begin
    (* Unpredicted jalr: nothing younger was fetched, the table only
       needs wrong-path entries dropped (there are none). *)
    let p = t.producer in
    for i = 0 to Array.length p - 1 do
      if p.(i) > rp then p.(i) <- -1
    done
  end;
  t.fq_head <- t.fq_tail;
  (* Deterministic LFSR recovery (§3.4): shift back once per squashed
     speculative branch-on-random decode, newest first. *)
  if t.cfg.Config.deterministic_lfsr then
    for i = t.spec_brr_len - 1 downto 0 do
      Bor_core.Engine.undo t.warm.engine
        ~shifted_out:(Bytes.unsafe_get t.spec_brr_log i <> '\000')
    done;
  t.spec_brr_len <- 0;
  (* Global-history and RAS recovery to the resolver's fetch point. *)
  let flags = t.r_flags.(rs) in
  (match t.r_kind.(rs) with
  | 1 (* cond *) ->
    Predictor.recover t.warm.pred t.r_pred.(rs)
      ~taken:(flags land rf_btaken <> 0)
  | 3 (* brr *) ->
    if flags land rf_pred <> 0 then
      Predictor.recover t.warm.pred t.r_pred.(rs)
        ~taken:(flags land rf_btaken <> 0)
    else Predictor.restore_ghist t.warm.pred t.r_ghist.(rs)
  | 2 (* jalr *) -> Predictor.restore_ghist t.warm.pred t.r_ghist.(rs)
  | _ -> ());
  if flags land rf_ras <> 0 then begin
    Ras.restore t.warm.ras t.ras_pool.(t.r_ras.(rs));
    (* Replay the resolver's own RAS effect. *)
    match t.r_instr.(rs) with
    | Bor_isa.Instr.Jalr _ when is_return t.r_instr.(rs) ->
      ignore (Ras.pop t.warm.ras)
    | _ -> ()
  end;
  t.wrong_path_decode <- false;
  t.resolver <- -1;
  t.resolver_pos <- -1;
  t.halted_decoded <- false;
  t.fetch_pc <- t.r_actual_next.(rs);
  t.fetch_stall_until <- t.cycle + t.cfg.Config.backend_redirect;
  (match t.tracer with
  | None -> ()
  | Some f ->
    f
      (Back_flush
         { cycle = t.cycle; resolver_pc = t.r_epc.(rs); squashed = removed }));
  if roi t then begin
    t.stats.backend_flushes <- t.stats.backend_flushes + 1;
    t.stats.squashed <- t.stats.squashed + removed
  end

let check_resolver t =
  if t.resolver >= 0 then begin
    let rp = t.resolver_pos in
    if
      rp < t.rob_head || rp >= t.rob_tail
      || t.r_seq.(rp land t.rob_mask) <> t.resolver
    then sim_error "resolver %d vanished" t.resolver
    else begin
      let c = t.r_complete.(rp land t.rob_mask) in
      if c >= 0 && c <= t.cycle then squash t rp
    end
  end

(* -------------------------------------------------------------- Commit *)

(* pipeline.* and cache.*: every exit of [run] and [run_window], [Ok]
   or [Error], publishes both, so a step-driven pipeline shows its
   events in the registry at its next [run] exit. *)
let publish t =
  Telemetry.publish t.tel t.stats;
  Telemetry.publish t.warm.tel_cache t.warm.hier

(* The region of interest closes — at [marker 2], or at a halt inside
   it: the cache-miss fields take the caches' counts. *)
let freeze_cache_misses t =
  t.stats.l1i_misses <- (Cache.stats (Hierarchy.l1i t.warm.hier)).misses;
  t.stats.l1d_misses <- (Cache.stats (Hierarchy.l1d t.warm.hier)).misses;
  t.stats.l2_misses <- (Cache.stats (Hierarchy.l2 t.warm.hier)).misses

(* [marker 1] opens the region of interest: publish the prefix the
   resets are about to discard, then start the records over. *)
let marker_commit t n =
  if n = 1 then begin
    publish t;
    t.stats <- fresh_stats ();
    Hierarchy.reset_stats t.warm.hier;
    Telemetry.restart t.tel;
    Telemetry.restart t.warm.tel_cache;
    t.roi_frozen <- false
  end
  else if n = 2 then begin
    t.roi_frozen <- true;
    freeze_cache_misses t
  end

let commit t =
  let n = ref 0 in
  let continue_ = ref true in
  let width = t.cfg.Config.commit_width in
  (* One flag load per cycle, not per retire slot. *)
  let san = !Check.on in
  while !continue_ && !n < width do
    if t.rob_head >= t.rob_tail then continue_ := false
    else begin
      let s = t.rob_head land t.rob_mask in
      let c = t.r_complete.(s) in
      if c >= 0 && c <= t.cycle then begin
        let flags = t.r_flags.(s) in
        let epc = t.r_epc.(s) in
        let instr = t.r_instr.(s) in
        if flags land rf_wrong <> 0 then
          sim_error "wrong-path instruction reached commit at pc 0x%x" epc;
        if san then sanitize_commit t s epc;
        t.rob_head <- t.rob_head + 1;
        incr n;
        t.committed <- t.committed + 1;
        (match t.tracer with
        | None -> ()
        | Some f -> f (Commit { cycle = t.cycle; pc = epc; instr }));
        if roi t then begin
          let st = t.stats in
          st.instructions <- st.instructions + 1;
          st.commit_slots <- st.commit_slots + 1;
          if flags land rf_load <> 0 then st.loads <- st.loads + 1;
          if flags land rf_store <> 0 then st.stores <- st.stores + 1
        end;
        (match t.r_kind.(s) with
        | 1 (* cond *) ->
          let actual_taken = flags land rf_btaken <> 0 in
          if roi t then begin
            t.stats.cond_branches <- t.stats.cond_branches + 1;
            if flags land rf_mispredict <> 0 then
              t.stats.cond_mispredicts <- t.stats.cond_mispredicts + 1
          end;
          Predictor.update t.warm.pred ~pc:epc t.r_pred.(s) ~taken:actual_taken;
          if actual_taken then
            Btb.insert t.warm.btb ~pc:epc ~target:t.r_actual_next.(s)
        | 3 (* brr, backend-resolution ablation *) ->
          (* brr statistics were taken at decode; committed-instruction
             counting above, but the brr events are not re-counted. *)
          if flags land rf_pred <> 0 then begin
            let taken = flags land rf_btaken <> 0 in
            Predictor.update t.warm.pred ~pc:epc t.r_pred.(s) ~taken;
            if taken then
              Btb.insert t.warm.btb ~pc:epc ~target:t.r_actual_next.(s)
          end
        | 2 (* jalr *) ->
          if roi t then begin
            t.stats.returns <- t.stats.returns + 1;
            if flags land rf_mispredict <> 0 then
              t.stats.return_mispredicts <- t.stats.return_mispredicts + 1
          end
        | _ -> ());
        (match instr with
        | Bor_isa.Instr.Marker m -> marker_commit t m
        | Bor_isa.Instr.Halt -> t.halt_committed <- true
        | _ -> ())
      end
      else continue_ := false
    end
  done;
  if !n > 0 then t.idle_cycle <- false

(* ----------------------------------------------------------------- Run *)

let cycle t = t.cycle

let step_cycle t =
  if t.halt_committed then ()
  else begin
    t.idle_cycle <- true;
    check_resolver t;
    commit t;
    issue t;
    decode t;
    fetch t;
    if roi t then begin
      t.stats.cycles <- t.stats.cycles + 1;
      t.stats.rob_occupancy <- t.stats.rob_occupancy + rob_occ t;
      Telemetry.observe t.tel_occupancy (rob_occ t)
    end;
    if !Check.on then sanitize_cycle t;
    t.cycle <- t.cycle + 1
  end

(* Fast-forward over provably idle cycles. Called only right after a
   cycle in which no stage did anything ([t.idle_cycle]); the machine
   state is then frozen except for the clock, so nothing can happen
   before the earliest of: the fetch stall lifting, the fetch-queue
   head reaching decode age, or an in-flight completion / ready time.
   Jump the clock there, replaying the per-cycle accounting (which is
   constant across the window) for every skipped cycle — simulated
   behavior, statistics, telemetry and cycle counts are identical to
   stepping cycle by cycle, which the bench digest gate checks.

   Soundness of the event scan: in a fully idle cycle the issue stage
   scanned every live entry (width was never consumed), so each
   still-unissued entry has either [nwait = 0] and a future [ready_at]
   (a direct event), or dependencies that all point at *unissued*
   producers — whose own events cover it transitively. *)
let quiesce_skip t ~limit =
  let c = t.cycle in
  let next = ref limit in
  let note x = if x < !next then next := x else () in
  (* Front end: fetch wakes when its stall lifts (if it can run at
     all). A fetch that could run right now means the idle cycle was
     not frozen after all — [note c] suppresses the skip. *)
  if
    t.fetch_pc >= 0 && (not t.halted_decoded)
    && t.fq_tail - t.fq_head < t.cfg.Config.fetch_queue
  then note (if t.fetch_stall_until > c then t.fetch_stall_until else c);
  (* Decode: the queue head wakes when it reaches decode age; an aged
     head blocked on a full ROB (or an LFSR port) wakes via a
     completion, already covered by the ROB scan below. An aged,
     unblocked head could decode right now: suppress the skip. *)
  if t.fq_head < t.fq_tail then begin
    let fslot = t.fq_head land t.fq_mask in
    let aged_at = t.fq_cycle.(fslot) + t.cfg.Config.decode_depth in
    if aged_at > c then note aged_at
    else begin
      let is_brr =
        match t.fq_instr.(fslot) with Bor_isa.Instr.Brr _ -> true | _ -> false
      in
      let blocked =
        if is_brr then t.cfg.Config.lfsr_ports <= 0
        else t.rob_tail - t.rob_head >= t.cfg.Config.rob_entries
      in
      if not blocked then note c
    end
  end;
  (* Back end: future completions (commit, the resolver) and ready
     times of fully-resolved unissued entries. *)
  let pos = ref t.rob_head in
  while !pos < t.rob_tail do
    let s = !pos land t.rob_mask in
    let cm = t.r_complete.(s) in
    (* [cm = c] wakes commit (and the resolver) at [c] itself: no skip.
       A stale [cm < c] is a non-head entry stuck behind the head and
       needs no event of its own -- the head's completion covers it. *)
    if cm >= 0 then begin if cm >= c then note cm else () end
    else if t.r_nwait.(s) = 0 then
      (* ready in the past yet unissued: a port-starved entry; don't
         risk the skip *)
      note (if t.r_ready_at.(s) > c then t.r_ready_at.(s) else c)
    else ();
    incr pos
  done;
  let k = !next - c in
  if k > 0 then begin
    if roi t then begin
      let st = t.stats in
      let occ = rob_occ t in
      (* Decode-starved holds for every skipped cycle (nothing
         decodes); the ROB-full stall counter additionally ticks when
         an aged non-brr head sits before a full ROB — conditions that
         are all frozen across the window. *)
      let rob_full_blocked =
        t.fq_head < t.fq_tail
        && begin
             let fslot = t.fq_head land t.fq_mask in
             t.fq_cycle.(fslot) + t.cfg.Config.decode_depth <= c
             && (match t.fq_instr.(fslot) with
                | Bor_isa.Instr.Brr _ -> false
                | _ -> true)
             && t.rob_tail - t.rob_head >= t.cfg.Config.rob_entries
           end
      in
      st.cycles <- st.cycles + k;
      st.rob_occupancy <- st.rob_occupancy + (k * occ);
      st.cycles_decode_starved <- st.cycles_decode_starved + k;
      if rob_full_blocked then st.cycles_rob_full <- st.cycles_rob_full + k;
      for _ = 1 to k do
        Telemetry.observe t.tel_occupancy occ
      done
    end;
    t.cycle <- c + k
  end

(* The detailed loop: run cycles until [t.committed] reaches [target],
   the pipeline halts, or the budget runs out. [run] drives it with no
   commit target, [run_window] once per window phase. *)
let detail_until t ~target ~max_cycles =
  let rec go () =
    if t.halt_committed || t.committed >= target then Ok ()
    else if t.cycle >= max_cycles then Error "cycle budget exhausted"
    else if
      rob_occ t = 0 && t.fq_head >= t.fq_tail && t.fetch_pc < 0
      && not t.halted_decoded
    then Error "front end deadlocked (fetch lost with empty ROB)"
    else begin
      step_cycle t;
      if t.idle_cycle && not t.halt_committed then
        quiesce_skip t ~limit:max_cycles;
      go ()
    end
  in
  go ()

let run ?(max_cycles = 2_000_000_000) t =
  Fun.protect ~finally:(fun () -> publish t) @@ fun () ->
  guard @@ fun () ->
  match detail_until t ~target:max_int ~max_cycles with
  | Error e -> Error e
  | Ok () ->
    if not t.roi_frozen then freeze_cache_misses t;
    Telemetry.record t.tel_run t.cycle;
    Ok t.stats

(* ------------------------------------------- Sampled simulation *)

let run_warming ?max_steps t = Block.run_warming ?max_steps t.warm
let block_cache t = Option.map fst t.warm.blocks

(* The one handover from the warm record into detail (after a
   checkpoint restore): fetch starts at the oracle's pc, the commit
   count at the oracle's instruction count, and an oracle that already
   halted leaves nothing to run. *)
let resume_fetch t =
  let m = t.warm.oracle in
  t.fetch_pc <- Bor_sim.Machine.pc m;
  t.fetch_stall_until <- t.cycle;
  t.halted_decoded <- false;
  t.halt_committed <- Bor_sim.Machine.halted m;
  t.committed <- (Bor_sim.Machine.stats m).Bor_sim.Machine.instructions

type window_result = {
  w_sample : (int * int) option;
  w_detailed : int;
  w_cycles : int;
}

(* Execute one detailed measurement window on [t], which the caller has
   just created fresh and seeded (architectural + warmed state) from a
   window-boundary checkpoint. The pipeline is never run again: it is
   never handed back to warming (at most a later [create ~reuse] takes
   its buffers), which is what makes a window a pure function of its
   checkpoint — the property the domain-parallel sampled runner
   rests on. [max_cycles] is a per-window budget ([t] starts at cycle
   0). *)
let run_window ?(max_cycles = 2_000_000_000) ~warmup ~window t =
  Fun.protect ~finally:(fun () -> publish t) @@ fun () ->
  resume_fetch t;
  let finish sample =
    Ok
      {
        w_sample = sample;
        w_detailed =
          (Bor_sim.Machine.stats t.warm.oracle).Bor_sim.Machine.instructions;
        w_cycles = t.cycle;
      }
  in
  guard @@ fun () ->
  match detail_until t ~target:(t.committed + warmup) ~max_cycles with
  | Error e -> Error e
  | Ok () ->
    if t.halt_committed then finish None
    else begin
      let c1 = t.cycle and i1 = t.committed in
      match detail_until t ~target:(i1 + window) ~max_cycles with
      | Error e -> Error e
      | Ok () ->
        let got = t.committed - i1 in
        finish (if got > 0 then Some (t.cycle - c1, got) else None)
    end
