(** One simulation job: a (program, config, plan, backend kind) tuple,
    its content address, and its deterministic result payload.

    The payload a job produces is a single {!Bor_telemetry.Json} text
    (schema ["bor-serve-result-v1"]): the key, the backend's report
    with every statistic rendered as an integer or a pre-formatted
    fixed-precision string (no float printing anywhere near a digest),
    and the run's telemetry snapshot plus its SHA-256. *)

type spec = private {
  sp_program : Bor_isa.Program.t;
  sp_backend : string;  (** a {!Bor_exec.Backend.Kind.name} *)
  sp_config : Bor_uarch.Config.t;
  sp_plan : Bor_uarch.Sampling_plan.t option;
      (** the whole sampling spec, selection knobs included *)
}

val make :
  ?config:Bor_uarch.Config.t ->
  ?plan:Bor_uarch.Sampling_plan.t ->
  ?rank_bands:int ->
  ?ci_target:float ->
  backend:string ->
  Bor_isa.Program.t ->
  spec
(** The only constructor: [rank_bands]/[ci_target] replace the plan's
    knobs through {!Bor_uarch.Sampling_plan.with_selection}, then
    {!Bor_exec.Backend.Kind.of_name} decodes [backend] with the plan.
    @raise Invalid_argument if either refuses, or the knobs come
    without a [plan]. *)

val key : spec -> Bor_store.Key.t
(** The job's content address: program bytes + full canonical config +
    plan + backend kind ({!Bor_store.Key.make} with [~kind:sp_backend]).
    The plan's selection knobs are part of it, at non-default values,
    because they change which windows run. *)

val run :
  ?store:Bor_store.Store.t ->
  ?runner:(Bor_exec.Sampled.exec_ctx -> Bor_exec.Sampled.runner) ->
  spec ->
  (string * [ `Cold | `Cached ], string) result
(** Execute (or fetch) the job via {!Bor_exec.Backend.run_cached} and
    return the payload text. Owns the calling domain's telemetry
    lifecycle: the registry is cleared and enabled for the run so the
    snapshot covers exactly this job, then cleared again and the
    enabled flag restored — safe to call on scheduler worker domains,
    whose registries are job-scoped by construction. [runner] (sampled
    jobs only — see {!Bor_exec.Backend.create}) swaps inline window
    execution for an external executor such as {!Wqueue}; the payload
    bytes are identical either way. *)
