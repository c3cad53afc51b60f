(** The unified execution-backend interface.

    The repo has four execution substrates — the functional oracle, the
    detailed ring-buffer pipeline, the functional-warming path, and
    sampled simulation. A {!t} packages one of them, created from a
    program (or from a {!Checkpoint}), behind the three things its
    callers read: the architectural machine, the timing pipeline (when
    there is one), and a [run] that never raises. Callers that need
    more — single-stepping, the warm-state record and its digests — use
    {!Bor_sim.Machine}, {!Bor_uarch.Pipeline.warm} and
    {!Bor_uarch.Block} directly. *)

type report =
  | Functional of { instructions : int }
  | Detailed of Bor_uarch.Pipeline.stats
  | Warmed of { instructions : int }
  | Sampled of Sampled.stats
      (** What a completed run measured, per substrate. *)

type t = {
  machine : unit -> Bor_sim.Machine.t;
      (** the architectural machine (the oracle, for pipeline-backed
          substrates) — final registers, memory, stats *)
  pipeline : Bor_uarch.Pipeline.t option;
      (** the underlying timing pipeline, when the substrate has one —
          for driver-specific extras (cycle counts, warmed-state
          digests, a tracer) *)
  run : unit -> (report, string) result;
      (** run to completion or budget; never raises — simulator errors,
          sanitizer violations and oracle faults come back as [Error]
          through {!Bor_uarch.Pipeline.guard} *)
}

val functional :
  ?mem:Bor_sim.Memory.t ->
  ?brr_mode:Bor_sim.Machine.brr_mode ->
  ?max_steps:int ->
  Bor_isa.Program.t ->
  t
(** [mem] is passed to {!Bor_sim.Machine.create}: the machine runs on
    that memory, scrubbed to its fresh state, instead of allocating and
    zero-filling a new one (say, {!Scratch.with_memory}'s). The caller
    must be done with the backend before [mem] is used again. *)

val detailed :
  ?config:Bor_uarch.Config.t ->
  ?reuse:Bor_uarch.Pipeline.t ->
  ?max_cycles:int ->
  Bor_isa.Program.t ->
  t
(** [reuse] is passed to {!Bor_uarch.Pipeline.create}: the new pipeline
    is built on that retired pipeline's memory, predictor tables and
    cache arrays, refilled to their create-time values, instead of
    allocating its own. The caller must be done with the retired
    pipeline. *)

val warming :
  ?config:Bor_uarch.Config.t ->
  ?reuse:Bor_uarch.Pipeline.t ->
  ?max_steps:int ->
  Bor_isa.Program.t ->
  t
(** Pure functional warming to completion. [run] goes through
    {!Bor_uarch.Block.run_warming} on the pipeline's warm-state record
    — and so, by default, the block translation cache
    ([docs/WARMING.md]); the warmed state is bit-identical to
    single-stepping with {!Bor_uarch.Block.warm_step}. [reuse] as in
    {!detailed}. *)

val sampled :
  ?config:Bor_uarch.Config.t ->
  ?reuse:Bor_uarch.Pipeline.t ->
  plan:Bor_uarch.Sampling_plan.t ->
  ?domains:int ->
  ?runner:(Sampled.exec_ctx -> Sampled.runner) ->
  ?max_cycles:int ->
  Bor_isa.Program.t ->
  t
(** The sampled substrate: [run] drives {!Sampled.run_on} on the
    backend's sweep pipeline; [machine]/[pipeline] expose the sweep's
    final state.
    The plan carries the ranked-set and online-stopping knobs;
    [runner] swaps in an external window executor such as the serve
    global window queue (see {!Sampled.run_on}). [reuse]
    as in {!detailed}: it builds the sweep pipeline; the detailed
    windows borrow theirs from {!Scratch} either way. *)

val pooled : (Bor_uarch.Pipeline.t option -> t) -> (t -> 'a) -> 'a
(** [pooled make f] builds a backend on a retired pipeline from
    {!Scratch} ([make] receives it as its [?reuse]; [None] when the
    pool is empty), applies [f] to it, and retires the backend's
    pipeline into the pool when [f] returns or raises. [f] must not
    let the backend, or anything reading its machine or pipeline,
    escape. *)

(** A backend kind as it arrives as data ([bor submit], [bor digest],
    the serve wire), decoded once. *)
module Kind : sig
  type t =
    | Functional | Detailed | Warming | Sampled of Bor_uarch.Sampling_plan.t

  val of_name : string -> Bor_uarch.Sampling_plan.t option -> (t, string) result
  (** The one decoder: [Error] for an unknown name, a plan on a kind
      other than ["sampled"], or ["sampled"] without one. *)

  val name : t -> string
  (** The name {!of_name} decodes: the cache key's [kind] component. *)
end

val create :
  ?config:Bor_uarch.Config.t ->
  ?runner:(Sampled.exec_ctx -> Sampled.runner) ->
  Kind.t ->
  Bor_isa.Program.t ->
  t
(** The kind's constructor above; only [Sampled] reads [runner]. *)

val run_cached :
  ?store:Bor_store.Store.t ->
  key:Bor_store.Key.t ->
  render:(report -> string) ->
  (unit -> (t, string) result) ->
  (string * [ `Cold | `Cached ], string) result
(** Memoized execution: serve the rendered payload from [store] when
    present, otherwise build the backend, [run] it, render the report,
    and publish the bytes under [key] before returning them. The bytes
    a caller sees are identical either way — that is the whole
    determinism contract, and what the digest-equality tests pin. A
    failed cache write is deliberately non-fatal (the result is still
    returned); a failed run is never cached. A fault while the backend
    is built (say, a data segment past simulated memory) is an [Error]
    through {!Bor_uarch.Pipeline.guard}, like a fault in the run. With
    no [store], always computes and reports [`Cold]. *)

val resume :
  ?config:Bor_uarch.Config.t ->
  ?max_cycles:int ->
  Checkpoint.t ->
  Bor_isa.Program.t ->
  (t, string) result
(** A detailed backend created from a checkpoint instead of the program
    entry point: the pipeline's warm-state record is seeded via
    {!Checkpoint.restore}, which hands over to detail through
    {!Bor_uarch.Pipeline.resume_fetch}, and [run] simulates in full
    detail from the restored state to halt — nothing at all when the
    checkpoint was taken after the program halted.
    [Error] (never an exception) when the checkpoint does not match the
    program or configuration. *)
