(** The Section 5.3 microbenchmark: checksums and a character
    distribution over a text buffer, with distinct update paths for
    upper-case, lower-case and other characters.

    The minic source is generated with the buffer size baked in; the
    text corpus ({!Text}) is patched into the [text] array after
    assembly. Edge-profile instrumentation ([Cond_edges]) reproduces the
    paper's "collect edge profiles to compute branch biases". [chars]
    defaults to 500_000, the paper's "half a million characters". *)

val compile :
  ?chars:int ->
  ?seed:int ->
  ?payload:Bor_minic.Instrument.payload_kind ->
  Bor_minic.Instrument.framework ->
  Bor_minic.Driver.compiled
(** Compile one instrumentation variant over the same corpus. All
    variants share source, corpus and compiler, so the only differences
    between binaries are the framework's — the paper's methodology of
    post-processing one fixed assembly file. *)

val reference_checksum : ?chars:int -> ?seed:int -> unit -> int
(** The interpreter's answer, for validating simulated runs. *)

val assemble_hand : ?chars:int -> ?seed:int -> unit -> Bor_isa.Program.t
(** A hand-scheduled BRISC assembly version of the same loop (register
    pressure and layout chosen by hand), with the corpus installed —
    for comparing the minic compiler's output quality against manual
    code. *)
