(** The scratch pool: retired pipelines whose buffers the next
    [Pipeline.create ~reuse] refills instead of allocating them. A
    pipeline's big buffers are its 8 MiB oracle memory, its predictor
    tables and its cache arrays; a sampled window or a superoptimizer
    oracle run touches a few pages and a few thousand table entries of
    them, so refilling a used set costs a fraction of allocating and
    zero-filling a new one.

    Safe from any domain or thread. The pool holds every pipeline given
    back and hands each out to one caller at a time, so it grows to the
    peak number of concurrent borrowers and no further. *)

val take : unit -> Bor_uarch.Pipeline.t option
(** A retired pipeline, or [None] when the pool is empty. The caller
    owns it: pass it as [Pipeline.create ~reuse] (or a backend's
    [?reuse]) and give back the pipeline that builds.
    [Backend.pooled] does both for a backend. *)

val give : Bor_uarch.Pipeline.t -> unit
(** Retire a pipeline into the pool. The caller must be done with it:
    the next taker overwrites its buffers. *)

val with_memory : Bor_isa.Program.t -> (Bor_sim.Memory.t -> 'a) -> 'a
(** [with_memory prog f] runs [f] on a pooled pipeline's oracle memory
    (for a [Machine.create ~mem], which scrubs it) and retires the
    pipeline again when [f] returns or raises. With the pool empty it
    creates a pipeline for [prog] to serve as the donor, registering no
    telemetry. *)
