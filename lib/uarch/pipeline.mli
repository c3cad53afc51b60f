(** Cycle-level out-of-order timing simulator for BRISC, organised
    timing-first (paper §5.1): the timing model leads — in particular it
    decides every branch-on-random outcome in its decode stage from the
    hardware LFSR engine — and a functional {!Bor_sim.Machine} oracle is
    stepped alongside to supply architectural values and verify
    committed state.

    Front end: fetch up to [fetch_width] instructions per cycle from the
    i-cache, stopping at a predicted-taken branch. Unconditional direct
    jumps ([jal]/[j]/[brra]) redirect at fetch via pre-decode bits;
    returns use the RAS; conditional branches use the tournament
    predictor with BTB targets. Branch-on-random is always predicted
    not-taken and never touches predictor, history or BTB.

    Decode (pipeline stage [decode_depth + 1] = 5): branch-on-random
    resolves here — the LFSR clocks on every decoded branch-on-random,
    correct path or wrong path, and a taken outcome costs only a
    front-end flush. Not-taken branch-on-randoms retire at decode
    without entering the ROB (paper §3.3). A mispredicted conditional
    branch (known here, thanks to the oracle) switches decode into
    wrong-path mode: the front end keeps fetching and decoding real
    instructions down the predicted path until the branch resolves in
    the back end and squashes them — which is how speculative LFSR
    updates (and their §3.4 deterministic recovery) are modelled
    honestly.

    Back end: register renaming via a producer table, dynamic issue of
    up to [issue_width] instructions per cycle ([mem_ports] memory
    operations), d-cache/L2/memory latencies on the correct path, and
    in-order commit of [commit_width] per cycle.

    The oracle and every structure warming also evolves — LFSR engine,
    caches, predictor, BTB, RAS — live in one {!Block.warm} record that
    the pipeline embeds ({!warm}); this module adds only the detailed
    core (fetch queue, ROB, rename, issue, squash, commit). *)

type stats = {
  mutable cycles : int;
  mutable instructions : int;  (** committed (branch-on-random included) *)
  mutable cond_branches : int;
  mutable cond_mispredicts : int;
  mutable returns : int;  (** committed jalr returns *)
  mutable return_mispredicts : int;  (** RAS misses among them *)
  mutable brr_executed : int;  (** retired branch-on-randoms *)
  mutable brr_taken : int;
  mutable backend_flushes : int;
  mutable frontend_flushes : int;  (** taken branch-on-random redirects *)
  mutable predecode_redirects : int;  (** jal/j/brra fetch redirects *)
  mutable squashed : int;  (** wrong-path instructions removed *)
  mutable loads : int;
  mutable stores : int;
  mutable cycles_fetch_full : int;  (** fetched a full packet *)
  mutable cycles_decode_starved : int;  (** nothing to decode *)
  mutable cycles_rob_full : int;
  mutable rob_occupancy : int;  (** summed per cycle; divide by cycles *)
  mutable l1i_misses : int;
  mutable l1d_misses : int;
  mutable l2_misses : int;
  mutable fetch_slots : int;
      (** instructions fetched into the fetch queue, wrong path included *)
  mutable fetch_icache_stalls : int;  (** fetch stalls on an L1I miss *)
  mutable decode_slots : int;
      (** instructions decoded, wrong path included *)
  mutable issue_slots : int;
      (** instructions issued to execution, wrong path included *)
  mutable commit_slots : int;
      (** instructions retired through the ROB: [instructions] minus the
          branch-on-randoms that retire at decode *)
}
(** Every field counts inside the region of interest only. All but
    [instructions], [returns], [cond_branches], [loads], [stores],
    [rob_occupancy] and the three cache-miss fields are also the
    [pipeline.*] telemetry counters, which read this record: see
    {!run}. *)

val ipc : stats -> float
val branch_accuracy : stats -> float

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable dump of a run's statistics. *)

type t

val create : ?config:Config.t -> ?reuse:t -> Bor_isa.Program.t -> t
(** A pipeline at the program's entry point.

    [~reuse:old] builds it on [old]'s buffers instead of allocating
    new ones, refilled to exactly their create-time values: the
    oracle's memory (scrubbed by {!Bor_sim.Machine.create}'s [~mem]),
    the predictor's three counter tables, the three caches' tag and LRU
    arrays, the BTB, the fetch-queue and ROB rings with their RAS
    snapshots, and the rename and store-forwarding tables. A buffer
    whose size differs under [config] is allocated afresh. Only the
    records around them are new, every telemetry instrument included,
    so the result is indistinguishable from a fresh [create] and its
    instruments bind to the registry current now.
    The caller must be done with [old]: it shares those buffers with
    the new pipeline and must never be run, read or reused again. *)

val cycle : t -> int
(** Current cycle number. *)

val run : ?max_cycles:int -> t -> (stats, string) result
(** Simulate until the program halts (or [max_cycles], default 2e9 —
    an error). When the program brackets a region of interest with
    [marker 1] / [marker 2], the returned statistics cover exactly that
    region; otherwise the whole run.

    The [pipeline.*] and [cache.*] telemetry counters are published
    from the stats record and the {!Cache.stats} of each level, not
    bumped per event (each is a {!Bor_telemetry.Telemetry.family}):
    at every exit of [run] and {!run_window} ([Ok] or [Error]), and at
    [marker 1] just before the resets, so they also count the prefix
    the statistics discard. [cache.*] is also published at every exit
    of {!run_warming}. A publish adds only what is new since the last
    one, so a record driven by {!Block.warm_step} shows its events at
    its next publishing exit. *)

val guard : (unit -> ('a, string) result) -> ('a, string) result
(** [guard f] runs [f], turning a simulator error, a sanitizer
    violation ({!Bor_check.Check.Violation}), an oracle fault
    ({!Bor_sim.Machine.Fault}, reported with its pc)
    or a memory fault into [Error] — the one fault boundary behind
    {!run}, {!run_window} and every [Bor_exec] backend, so each failure
    reads the same whichever substrate hit it. *)

val oracle : t -> Bor_sim.Machine.t
(** The functional model, for reading final architectural state. *)

val warm : t -> Block.warm
(** The embedded warm-state record: the oracle and the warmed
    structures the detailed core runs on, which {!run_warming} evolves
    and {!Bor_exec.Checkpoint} exports and imports. *)

val config : t -> Config.t

(** {2 Sampled simulation}

    SMARTS-style sampling: the run fast-forwards on the functional
    oracle under {e functional warming} — caches, BTB, direction
    predictor, RAS and the LFSR engine keep evolving, but no ROB,
    issue, or flush timing is modelled — and periodically drops into a
    {e detailed window} of the full pipeline, seeded from the warmed
    structures. CPI is measured per window (after an unmeasured detail
    warmup) and extrapolated with a 95% confidence interval.

    None of this affects a plain {!run}: full-detail behavior, stats,
    and telemetry are byte-identical whether or not this code exists
    (the bench golden digests enforce it). *)

val run_warming : ?max_steps:int -> t -> int
(** {!Block.run_warming} on the embedded record. *)

val block_cache : t -> Block.t option
(** The record's block translation cache, once a block-mode
    {!run_warming} has created it — for the invalidation tests and
    throughput reporting. *)

val state_digests : t -> (string * string) list
(** {!Block.state_digests} of the embedded record — what the
    warming-equivalence and checkpoint tests compare, and the head of
    every sanitizer violation's state dump. *)

val resume_fetch : t -> unit
(** The one handover from the warm record into detail, after seeding a
    fresh pipeline's record from elsewhere (a checkpoint restore):
    fetch starts at the oracle's pc, the commit count at the oracle's
    instruction count, and an oracle that has already halted leaves the
    pipeline halted, so a run from it simulates nothing. *)

type window_result = {
  w_sample : (int * int) option;
      (** [(cycles, instructions)] of the measured stretch; [None] when
          the program halted before anything was measured *)
  w_detailed : int;  (** oracle instructions this window executed *)
  w_cycles : int;  (** detailed cycles this window simulated *)
}

val run_window :
  ?max_cycles:int -> warmup:int -> window:int -> t -> (window_result, string) result
(** Execute one detailed measurement window — [warmup] unmeasured
    commits, then [window] measured ones — on a throwaway pipeline the
    caller has just created and seeded from a window-boundary
    checkpoint. Because the pipeline is never run again afterwards
    (never handed back to warming; at most a later [create ~reuse]
    takes its buffers), a window is a pure function of its checkpoint:
    the foundation of {!Bor_exec.Sampled}'s domain-parallel execution.
    [max_cycles] (default 2e9) is a per-window cycle budget. Simulator
    errors, sanitizer violations and oracle faults come back as
    [Error]; only a pipeline seeded with out-of-range state (a forged
    checkpoint) can make it raise. *)

(** {2 Tracing}

    The one observation stream out of the detailed core, for debugging
    and for analyses built on the simulator. [Commit] fires in commit
    order; [Brr_resolved] fires once per correct-path branch-on-random
    decision, in program order — so the [taken] fields of a run are its
    committed outcome stream, the sequence the §3.4 determinism
    experiments compare against a functional run. Flush events fire
    when the redirect happens. Only the detailed core fires events:
    warming ({!run_warming}) fires none. *)

type trace_event =
  | Commit of { cycle : int; pc : int; instr : Bor_isa.Instr.t }
  | Brr_resolved of { cycle : int; pc : int; taken : bool }
      (** a correct-path branch-on-random decision, made at decode under
          either [Config.brr_resolve_in_backend] setting *)
  | Front_flush of { cycle : int; target : int }
  | Back_flush of { cycle : int; resolver_pc : int; squashed : int }

val set_tracer : t -> (trace_event -> unit) -> unit
(** At most one tracer; calling again replaces it. *)
