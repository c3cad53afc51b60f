(** Versioned, digest-stamped execution checkpoints.

    A checkpoint is the capture of a pipeline's warm-state record as
    named regions ({!Bor_uarch.Block.regions}: LFSR, tournament
    predictor, BTB, RAS, L1/L2 tag stores) plus the complete
    architectural state of its oracle (register file, pc, halt flag,
    written memory pages) at an instruction boundary — everything
    needed to seed a freshly created pipeline such that detailed
    execution from the checkpoint is a pure function of the
    checkpoint. That purity is what {!Sampled} builds its
    domain-parallel window execution on, and what makes
    [bor checkpoint save/resume] reproducible.

    The record's block translation cache and its warming mispredict
    count are {e not} part of a checkpoint: the cache holds no state
    beyond a memoization of the decoded text, so a restored pipeline
    recompiles blocks on demand and re-derives the identical warming
    trajectory (see [docs/WARMING.md]). The format predates the cache
    and is unchanged by it.

    The file format is stamped three ways: a magic string, a format
    version, and a trailing SHA-256 of the whole payload. {!of_string}
    / {!load_file} reject mismatches of any of the three with a
    distinct diagnostic and never raise. *)

type t = {
  ck_program : string;  (** hex digest of the program image *)
  ck_arch : Bor_sim.Machine.arch;
  ck_mem : Bor_sim.Memory.snapshot;
  ck_warm : (string * Bor_uarch.Region.value) list;
      (** {!Bor_uarch.Block.regions}, captured in their order *)
}

val version : int
(** Current file-format version (serialized into every file). *)

val program_digest : Bor_isa.Program.t -> string
(** SHA-256 of the program's serialized image — compute once per run
    and pass to {!capture}/{!restore}, which compare it against
    [ck_program]. *)

val capture : program_digest:string -> Bor_uarch.Pipeline.t -> t
(** Deep-copy the architectural and warmed state of the pipeline's
    warm-state record. Meaningful at an instruction boundary with
    nothing in flight (i.e. during functional warming, or before the
    first cycle). *)

val restore :
  t -> program_digest:string -> Bor_uarch.Pipeline.t -> (unit, string) result
(** Seed a {e freshly created} pipeline's warm-state record (same
    program, same configuration) from the checkpoint, then hand over to
    detail with {!Bor_uarch.Pipeline.resume_fetch}: fetch starts at the
    restored pc, and a checkpoint taken after the program halted leaves
    nothing to run. [Error] on a program-digest mismatch or a structure
    geometry mismatch (pipeline built with a different configuration;
    the diagnostic names the first region that does not fit); never
    raises. The pipeline's statistics and telemetry start from
    zero, like any fresh pipeline's. *)

val to_string : t -> string
(** Serialize: magic, version, payload, trailing SHA-256 stamp. *)

val of_string : string -> (t, string) result
(** Parse and validate magic, version and digest stamp. All failures —
    including truncated or malformed payloads and predictor counters
    outside 0..3 — come back as [Error] with a diagnostic naming what
    was wrong; never raises. *)

val save_file : string -> t -> (unit, string) result
val load_file : string -> (t, string) result
(** {!to_string}/{!of_string} + file I/O; I/O errors become [Error]. *)
