(** Coverage-guided mutation fuzzer over the ten-way differential
    property, with the pipeline sanitizer enabled.

    The feedback signal is the telemetry registry: after each case the
    fuzzer reads every counter and buckets its value by log2; a case
    that lights up a (counter, bucket) pair never seen before is
    {e interesting} and joins the mutation population. Genomes are
    whole program images — fresh {!Gen.gen_program} outputs, corpus
    reproducers, compiled minic sources — mutated with {!Gen.mutate};
    minic sources additionally mutate at the source level (integer
    literals) and are recompiled. Every case runs the full differential
    property ({!Diff.run}) with {!Bor_check.Check} enabled, so both
    state divergence between the four engines and any internal
    invariant violation count as failures. Failures are deduplicated by
    (stage, reason), auto-shrunk ({!Shrink.minimize}) and written to
    the corpus directory as self-describing [.s] reproducers.

    The run is a pure function of [seed] plus the corpus/minic inputs:
    the generator PRNG is deterministic and the property never consults
    wall-clock time. *)

type crash = {
  path : string option;  (** reproducer file, when a corpus dir is set *)
  stage : string;
  reason : string;
}

type report = {
  iterations : int;  (** mutation-loop cases attempted *)
  executed : int;  (** cases whose differential completed (pass or fail) *)
  skipped : int;  (** {!Diff.Budget} cases: mutants that hung or faulted *)
  rejected : int;  (** minic mutants that failed to compile *)
  interesting : int;  (** cases that added new coverage features *)
  features : int;  (** distinct (counter, log2 bucket) pairs seen *)
  checks : int;  (** sanitizer checks executed across the whole run *)
  crashes : crash list;  (** deduplicated failures, oldest first *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?iters:int ->
  ?seed:int ->
  ?corpus_dir:string ->
  ?minic_sources:string list ->
  ?programs:Bor_isa.Program.t list ->
  ?max_steps:int ->
  ?max_cycles:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** [run ()] seeds the population from [corpus_dir] (existing [.s]
    reproducers are replayed first — a regression check in itself),
    the preloaded [programs], and the compiled [minic_sources], then
    runs [iters] (default 200) mutated cases from [seed] (default 1). New crashes are written to
    [corpus_dir] when set. [log] (default silent) receives one line per
    notable event. Telemetry and the sanitizer are force-enabled for
    the duration and restored after. *)
