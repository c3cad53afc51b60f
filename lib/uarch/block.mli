(** The warm-state record and functional warming.

    {!warm} is the one record of the state functional warming evolves:
    the functional oracle, the LFSR engine, the cache hierarchy, the
    direction predictor, the BTB and the RAS, plus what the warmer
    needs to drive them — the decoded text, the two configuration flags
    it reads, the MRU line trackers, the warming mispredict count and
    the lazily built block translation cache. A {!Pipeline.t} embeds
    one ({!Pipeline.warm}) and runs its detailed core on the same
    structures; a {!Bor_exec.Checkpoint} is the record's {!regions}
    captured, plus the oracle's architectural state.

    There are two warming paths. The single-step reference path
    ({!warm_step}) dispatches the oracle one decoded event at a time;
    the block translation cache makes warming fast by specializing each
    straight-line stretch of code once into a fused array of OCaml
    closures — a {e block} — keyed by its start address. A block is a
    run of plain register and memory instructions ending in one control
    transfer (branch, jump, branch-on-random or halt); executing it
    replays exactly the per-instruction sequence of icache probes,
    dcache probes, predictor/BTB/RAS operations and oracle effects the
    single-step path would perform, so the warmed state is
    bit-identical — the warming-equivalence tests compare {!state_digests}
    to enforce it. The rules both paths must apply the same way (a
    conditional transfer's predictor/BTB step, a dcache probe) exist
    once in this module and both paths call them.

    The cache is a pure throughput device. It holds no architectural or
    warmed state of its own: checkpoints never serialize it, and a
    restored run simply recompiles blocks on demand (deterministically,
    since compilation is a pure function of the decoded text). Blocks
    are invalidated when the decoded image changes
    ({!Bor_sim.Machine.patch_brr_freq} bumps the machine's code
    generation) and, conservatively, when a store lands in the text
    address range. Anything the specializer cannot prove straight-line —
    [marker]/[rdlfsr] instructions, instrumented site addresses,
    out-of-text pcs — falls back to the single-step path.

    See [docs/WARMING.md] for the full contract. *)

type stats = {
  mutable compiled : int;  (** blocks specialized *)
  mutable hits : int;  (** block executions *)
  mutable block_instructions : int;  (** instructions retired via blocks *)
  mutable invalidations : int;  (** whole-cache flushes *)
  mutable fallback_steps : int;
      (** instructions the driver single-stepped while the cache was
          active (non-compilable stretches, step-budget tails) *)
}

type t
(** A block translation cache over one record's decoded text. *)

type warm = private {
  oracle : Bor_sim.Machine.t;  (** the functional model *)
  engine : Bor_core.Engine.t;  (** the branch-on-random LFSR engine *)
  hier : Hierarchy.t;
  pred : Predictor.t;
  btb : Btb.t;
  ras : Ras.t;
  code : Bor_isa.Instr.t array;  (** the program's decoded text *)
  code_base : int;
  brr_in_pred : bool;  (** {!Config.brr_in_predictor} *)
  use_blocks : bool;  (** {!Config.warm_block_cache} *)
  lmask : int;  (** [lnot (line_bytes - 1)]: maps an address to its line *)
  mutable iline : int;
  mutable dline : int;
  mutable mispredicts : int;
  tel_cache : Hierarchy.t Bor_telemetry.Telemetry.family;
      (** the [cache.*] counters, published from [hier] *)
  mutable blocks : (t * stats Bor_telemetry.Telemetry.family) option;
      (** the translation cache and its [warming.block.*] counters,
          built by the first block-mode chunk of {!run_warming} ([None]
          before then, and forever in full-detail or cache-disabled
          runs, so the family never registers there) *)
}
(** [iline] and [dline] are the most-recently-used line trackers of the
    icache and dcache ports, so consecutive same-line probes stay
    deduplicated across the block/single-step boundary ([-1] = nothing
    touched yet). Re-touching the MRU line is a strict no-op on cache
    state, which is why the dedup cannot perturb digests.
    [mispredicts] counts warming-model mispredicts on either path —
    predicted-stream mismatches on conditional branches and, under
    {!Config.brr_in_predictor}, branch-on-randoms. It is a
    ranked-sampling feature (docs/SAMPLING.md), not warmed state:
    checkpoints neither save nor restore it, and digests ignore it. *)

val fresh_warm :
  ?reuse:warm ->
  brr_mode:Bor_sim.Machine.brr_mode ->
  Config.t ->
  Bor_isa.Program.t ->
  warm
(** Cold structures, the oracle at the program's entry, nothing touched
    or mispredicted, no translation cache; registers the [cache.*]
    family. [~reuse:old] builds the oracle on [old]'s memory and the
    hierarchy, predictor and BTB on [old]'s tables (see
    {!Pipeline.create}). *)

val regions : warm Region.t list
(** Every warmed structure's {!Region}s, joined in checkpoint order:
    [lfsr] (the engine's register); the predictor's [ghist], [gshare],
    [bimodal] and [chooser]; [btb.tags] and [btb.targets]; [ras.top],
    [ras.depth] and [ras.stack]; then [clock], [tags] and [lru] of
    [l1i], [l1d] and [l2]. A {!Bor_exec.Checkpoint} captures, restores
    and serializes exactly this list. *)

val state_digests : warm -> (string * string) list
(** One named digest per warmed structure: [l1i], [l1d], [l2],
    [predictor], [btb], [ras] and [lfsr] (the engine's register). Two
    records with equal digests hold the same warmed state. *)

val warm_step : warm -> unit
(** Execute one instruction under functional warming, always on the
    single-step reference path (never through the block cache) — the
    unit the warming-equivalence tests compare against. The oracle must
    not be halted. *)

val run_warming : ?max_steps:int -> warm -> int
(** Warm until the program halts (or [max_steps]); returns the number
    of instructions executed. Unless [use_blocks] is off (or the oracle
    has site hooks registered), warming runs through the block
    translation cache. [max_steps] is honored exactly: a block that
    would overshoot the budget is single-stepped instead, so sampling
    plans land their windows on the same instruction boundaries either
    way. Under the sanitizer the oracle, hierarchy and RAS are audited
    after every 64k-instruction chunk. Every exit publishes [cache.*]
    and, once the cache exists, [warming.block.*]. *)

val stats : t -> stats
(** Live counters (plain fields; {!run_warming} publishes them as
    [warming.block.*] telemetry at every exit) — for tests and
    throughput reporting. *)
