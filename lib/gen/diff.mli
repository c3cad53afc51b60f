(** The ten-way differential property as a library: run one program
    under the functional simulator, the full-detail pipeline, functional
    warming (twice — through the block translation cache and with the
    cache forced off onto the single-step path), sequential sampled
    simulation, domain-parallel sampled simulation (domain count
    varied by the seed), sequential + parallel ranked-set sampled
    simulation with CI stopping on (band count varied by the seed),
    and two sampled legs routed through one shared window queue
    ({!Bor_exec.Wqueue}, as [bor serve] uses it) as distinct jobs —
    the second must be answered entirely by the first's shared work
    units — and demand identical final architectural state (all registers, the whole data segment,
    and the retirement statistics) — plus, for each parallel or
    window-queue leg, sampled statistics identical to the sequential
    leg's, CPI, CI and stop decision included, and for the ranked legs
    a window budget no larger than fixed-period's. Every leg is driven
    through {!Bor_exec.Backend}, the same surface the CLI and bench
    drivers use. Each timing leg builds its pipeline on a retired one
    from {!Bor_exec.Scratch} and retires it there once its final state
    has been compared, on every exit path, [Fail], [Budget] and
    exceptions included ({!Bor_exec.Backend.pooled}); the functional
    reference runs on a pooled pipeline's memory
    ({!Bor_exec.Scratch.with_memory}), scrubbed to its fresh state.

    Used by both [test/gen_brisc.ml] (via QCheck) and the fuzzer, which
    additionally needs the three-way outcome split: a mutant that never
    terminates or wanders into unmapped memory is {e its own} fault —
    the harness reports it as {!Budget} (skip), reserving {!Fail} for
    genuine disagreements between engines or sanitizer violations, so
    the shrinker cannot converge on a boring infinite loop. *)

type failure = {
  stage : string;
      (** which engine/phase failed: ["pipeline"], ["warming"],
          ["warming-singlestep"], ["sampled"], ["parallel-sampled"],
          ["ranked"], ["parallel-ranked"], ["plan"], or a comparison
          stage *)
  reason : string;
}

type outcome =
  | Pass
  | Fail of failure  (** a real disagreement or sanitizer violation *)
  | Budget of string
      (** the functional reference itself could not finish the program
          (step budget, memory fault): uninteresting mutant, skip *)

val run :
  ?max_steps:int -> ?max_cycles:int -> ?plan_seed:int ->
  Bor_isa.Program.t -> outcome
(** [run prog] executes the whole differential property with
    [deterministic_lfsr] pipelines (so the committed branch-on-random
    stream provably matches the in-order stream). [max_steps] (default
    2e6) bounds the functional reference; [max_cycles] (default 2e7)
    bounds each timing run; [plan_seed] (default 0) seeds the sampling
    plan (warmup 20 / window 30 / period 120, as in the QCheck
    property). Sanitizer checks fire iff [Bor_check.Check.on] — a
    {!Bor_check.Check.Violation} in any engine is a {!Fail}. *)
