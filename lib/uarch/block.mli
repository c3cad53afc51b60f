(** Block translation cache for functional warming.

    The warmer's single-step path ({!Pipeline.warm_step}) dispatches the
    oracle one decoded event at a time; this module makes warming fast
    by specializing each straight-line stretch of code once into a
    fused array of OCaml closures — a {e block} — keyed by its start
    address. A block is a run of plain register and memory instructions
    ending in one control transfer (branch, jump, branch-on-random or
    halt); executing it replays exactly the per-instruction sequence of
    icache probes, dcache probes, predictor/BTB/RAS operations and
    oracle effects the single-step path would perform, so the warmed
    state is bit-identical — the warming-equivalence tests compare
    per-structure [state_digest]s to enforce it. The rules both paths
    must apply the same way exist once, here, and the single-step path
    calls them too: a conditional transfer's predictor/BTB step is
    {!warm_branch}, a dcache probe is {!touch_data}.

    The cache is a pure throughput device. It holds no architectural or
    warmed state of its own: checkpoints never serialize it, and a
    restored run simply recompiles blocks on demand (deterministically,
    since compilation is a pure function of the decoded text). Blocks
    are invalidated when the decoded image changes
    ({!Bor_sim.Machine.patch_brr_freq} bumps the machine's code
    generation) and, conservatively, when a store lands in the text
    address range (tracked per store; the page-dirty bitmap covers the
    same pages for checkpoint delta purposes). Anything the specializer
    cannot prove straight-line — [marker]/[rdlfsr] instructions,
    instrumented site addresses, out-of-text pcs — falls back to the
    single-step path.

    See [docs/WARMING.md] for the full contract. *)

type warm = {
  lmask : int;  (** [lnot (line_bytes - 1)]: maps an address to its line *)
  mutable iline : int;
  mutable dline : int;
  mutable mispredicts : int;
}
(** The warming state both paths share, one record per pipeline. [iline]
    and [dline] are the most-recently-used line trackers of the icache
    and dcache ports, so consecutive same-line probes stay deduplicated
    across the block/single-step boundary ([-1] = nothing touched yet).
    Re-touching the MRU line is a strict no-op on cache state, which is
    why the dedup cannot perturb digests. [mispredicts] counts
    warming-model mispredicts on either path — predicted-stream
    mismatches in {!warm_branch} — and is what
    {!Pipeline.warm_mispredicts} reports: a ranked-sampling feature,
    not warmed state, so checkpoints ignore it. *)

val fresh_warm : line_bytes:int -> warm
(** Nothing touched, nothing mispredicted. [line_bytes] must be a power
    of two, as {!Cache.create} requires. *)

val touch_data : warm -> Hierarchy.t -> int -> unit
(** Probe the dcache port at an address unless its line is the port's
    MRU line. *)

val warm_branch :
  Predictor.t -> Btb.t -> warm -> pc:int -> taken:bool -> target:int -> unit
(** Warm the predictor and BTB on one retired conditional transfer at
    [pc] with taken target [target] and fall-through [pc + 4]: predict,
    compare the predicted stream (taken → the BTB's target or the
    fall-through) with the actual successor, repair the history and
    count a mispredict on a mismatch, train the tables and install a
    taken target — a full-detail run's commit-path updates. Called for
    every conditional branch, and for a branch-on-random only when
    [Config.brr_in_predictor] is set (paper §3.3). *)

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

val create :
  code:Bor_isa.Instr.t array ->
  code_base:int ->
  cfg:Config.t ->
  machine:Bor_sim.Machine.t ->
  hier:Hierarchy.t ->
  pred:Predictor.t ->
  btb:Btb.t ->
  ras:Ras.t ->
  engine:Bor_core.Engine.t ->
  warm:warm ->
  on_brr:(bool -> unit) ->
  t
(** Build an (empty) cache over the pipeline's decoded text. [on_brr]
    is called with each retired branch-on-random outcome, exactly as
    the single-step path logs them. The cache itself touches no
    telemetry: {!stats} is published as the [warming.block.*] counters
    (a {!Bor_telemetry.Telemetry.family} the pipeline registers when it
    first builds a cache) at every exit of {!Pipeline.run_warming}. *)

type status =
  | Halted  (** the program's [halt] retired inside a block *)
  | Uncompilable
      (** nothing cached or compilable at the stopping pc — the caller
          must single-step one instruction on the reference path *)
  | Out_of_budget
      (** the budget is exhausted, or the next block would overshoot
          it — the caller must single-step the remaining tail so step
          budgets land on exact instruction boundaries *)

val run : t -> budget:int -> int * status
(** Execute compiled blocks starting at the machine's current pc,
    chaining block to block, until the budget is reached or something
    the cache cannot run comes up. Returns how many instructions
    retired (the machine, hierarchy, predictor, BTB, RAS and LFSR have
    advanced past all of them, and the machine's pc is at the stopping
    point) and why the run stopped. The machine must not be halted on
    entry. Raises {!Bor_sim.Machine.Fault} exactly where the
    single-step path would. *)

val note_store : t -> int -> unit
(** Tell the cache about a store executed outside a block (the
    single-step fallback): a store into the text range schedules a
    whole-cache flush, keeping the self-modification contract uniform
    across both paths. *)

val note_fallback : t -> int -> unit
(** Count [n] instructions the driver ran through the single-step
    fallback while the cache was active. *)

val flush : t -> unit
(** Drop every compiled block (counted as one invalidation). *)

val stats : t -> stats
(** Live counters (plain fields; {!Pipeline.run_warming} publishes them
    as [warming.block.*] telemetry at every exit) — for tests and
    throughput reporting. *)
