(** The window queue: the one off-thread executor for detailed
    windows, as first-class, content-addressed work units, and the one
    loop that picks up work ({!work}).

    Two kinds of owner drive it, both through {!Pool}. [bor serve]'s
    scheduler shares one queue across every job on the server: it
    {!post}s each queued job, and its worker domains are [domains] pool
    copies of {!work}, which run window units in preference to starting
    new jobs ([Bor_serve.Scheduler]). A standalone {!Sampled.run_on} at
    [domains > 1] creates a private queue and offers [domains - 1]
    copies of {!work} for the run; the sweep thread is the remaining
    executor, so the run completes even if no pool worker is free to
    help. Either way the job's {!Window.runner} ({!val-runner}) pushes
    each window into the queue. The scheduler's copies run until it
    closes the queue; the pool grows so that they never wait for a
    worker.

    A work unit is keyed by

    {v (shard key hex) ^ " mc=" ^ max_cycles ^ " tel=" ^ telemetry v}

    where the shard key is {!Bor_store.Key.shard} — (program digest,
    config, whole plan, boundary index) — so two jobs that share a
    program prefix and plan {e share the unit}: it executes once and
    both jobs receive the same entry, telemetry delta included
    ([serve.windows.shared_shard_hits]). Window purity is what makes
    that sound; the in-order absorb at each job's merge point is what
    keeps every payload byte-identical to an inline run.

    Scheduling is {b help-first}: a job's executor blocked on
    backpressure (per-job in-flight cap) or in {!val-runner}'s drain
    executes queued units itself instead of waiting. Progress is
    guaranteed with zero pool workers: a blocked job waits only for
    units already running on another thread, and {!work} parks only
    when there is nothing to run. Per-job {e advisory
    stop flags} ({!Window.exec_ctx.xc_stopped}) deprioritize a
    CI-stopped job's leftover windows — rotated behind live jobs'
    units, never skipped, since every dispatched unit must still
    deliver.

    A unit whose execution raises completes with an [Error] entry: it
    fails the owning job(s) at their merge, is counted in
    [serve.windows.failed], and is {e never} retained, so a later
    identical dispatch recomputes.

    Checkpoints never leave memory: the shard key addresses a unit for
    sharing, not an entry in a store. *)

type t

val create : ?inflight_cap:int -> ?finished_cap:int -> unit -> t
(** [inflight_cap] (default 8, >= 1) bounds each job's undelivered
    units — the sweep's backpressure. [finished_cap] (default 512)
    bounds how many completed units stay addressable for sharing. *)

val dispatch :
  t ->
  job:string ->
  wu_key:string ->
  exec:(unit -> Window.window_entry) ->
  index:int ->
  deliver:(int -> Window.window_entry -> unit) ->
  stopped:(unit -> bool) ->
  unit
(** The generic work-unit entry point ({!val-runner} is its sampled
    wrapper): request the unit named [wu_key], executing [exec] if no
    identical unit exists yet, and deliver the entry — shared or
    fresh — as [job]'s window [index]. May block on the per-job
    in-flight cap (help-executing meanwhile); may deliver on this or
    any other thread, before or after returning. [exec] must be a pure
    function of [wu_key] (identical keys must compute identical
    entries) — the sharing contract. *)

val drain : t -> job:string -> unit
(** Block until every unit dispatched by [job] has been delivered,
    help-executing pending units (any job's) while waiting. *)

val runner :
  t ->
  job:string ->
  config:Bor_uarch.Config.t ->
  Window.exec_ctx ->
  Window.runner
(** The runner a sampled job plugs into {!Sampled.run_on}:
    dispatch enqueues or joins the checkpoint's work unit; drain
    help-executes until every one of [job]'s units has been delivered.
    [job] is any stable identifier unique to the running job (the
    scheduler uses the job key hex); [config] must be the job's
    pipeline config. *)

(** {2 The work loop} *)

val post : t -> (unit -> unit) -> unit
(** Queue a job behind every window unit: {!work} starts it only when
    no unit is pending. @raise Invalid_argument after {!close}. *)

val close : t -> unit
(** Let every {!work} return once both queues are empty. *)

val work : t -> unit
(** Run window units first, then posted jobs, and park while there is
    neither; return once the queue is closed and both are empty. Any
    number of domains may run it at once, the owner's included (that
    is how it drains the queue before joining its pool copies). An
    exception from a posted job ends the loop. *)

(** {2 Counters}

    The first four are lock-free atomic reads, safe anywhere; the
    depth/in-flight views take the queue's lock. *)

val dispatched : t -> int
(** Units requested, including shared and immediate hits. *)

val executed : t -> int
(** Units actually run (once each, however many jobs share them). *)

val shared_hits : t -> int
(** Dispatches answered by an existing unit — in flight or finished —
    instead of a fresh execution. *)

val failed : t -> int
(** Executions that produced an [Error] entry (including exceptions). *)

val depth : t -> int
(** Pending (not yet claimed) units in the queue. *)

val inflight_total : t -> int
(** Undelivered units summed over jobs (shared units count once per
    waiting job). *)

val inflight_by_job : t -> (string * int) list
(** Per-job undelivered counts, sorted by job id ([--metrics-socket]'s
    per-job gauge). *)
