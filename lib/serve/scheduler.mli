(** The serve scheduler: a keyed job table in front of a window queue
    ({!Wqueue}) and its worker domains.

    Every submission is addressed by its job's content key, which is
    what makes the three fast paths fall out of one table lookup:

    - the key is already [Done] with a payload → answered immediately
      from memory ([`Hit] — a warm resubmission never touches a
      worker);
    - the key is queued or running → the submission {e joins} the
      in-flight job ([`Joined]) and will observe the same bytes;
    - otherwise — a new key, or one whose last run failed, since
      errors are never memoized — the job is enqueued ([`Queued]) and
      a worker runs it
      through {!Job.run}, where the content-addressed store (when
      configured) supplies cross-process / cross-restart reuse.

    The payload bytes are identical on every path — cold, memory-hit,
    store-hit, dedup-join — per the determinism contract the
    digest-equality tests pin (docs/SERVE.md).

    Queued jobs are posted to one {!Wqueue}, and the workers are
    {!Bor_exec.Pool} copies of its work loop ({!Wqueue.work}). Sampled
    jobs do not fan their windows out privately: they push them into
    the same queue, shared by every job on this scheduler, and idle
    workers pull window units in preference to starting new jobs.
    Identical units from concurrent jobs (same program, config, plan,
    boundary) execute once and are shared; the payloads stay
    byte-identical to standalone runs at any worker count and any
    arrival interleaving (the [serve.windows.*] telemetry family counts
    the traffic).
    Window checkpoints stay in memory; the store holds result payloads
    only, one entry per job key. A window execution failure fails only
    the jobs waiting on that window — the scheduler and its workers
    keep serving, and the failed unit is never cached.

    Counters live in atomics (workers update them from their own
    domains) and in the window queue's counters; {!submit} and {!stats}
    publish them as the [serve.*] telemetry counters (a
    {!Bor_telemetry.Telemetry.family} registered on the creating domain
    at {!create} time — enable telemetry first, as always). *)

type t

type disposition = [ `Queued | `Joined | `Hit ]
(** What {!submit} did with the submission. *)

type outcome = (string * [ `Cold | `Cached ], string) result
(** A finished job: the payload text and whether the worker computed
    it ([`Cold]) or the store served it ([`Cached]) — or the run's
    error. *)

type state = Queued | Running | Done of outcome

val create : ?domains:int -> ?store:Bor_store.Store.t -> unit -> t
(** Offer [domains] workers (default 1, >= 1, at most
    {!Bor_exec.Pool.max_workers}) to the pool, as copies of the loop. *)

val submit : t -> Job.spec -> string * disposition
(** Returns the job's key (64-char hex), which is also its job id.
    @raise Invalid_argument after {!shutdown}. *)

val job_state : t -> string -> state option
(** [None] for a key this scheduler has never seen. *)

val await : t -> string -> outcome option
(** Block until the keyed job completes. [None] for an unknown key. *)

val stats : t -> (string * int) list
(** Deterministically ordered counter snapshot: submissions, completions,
    failures, cache hits/misses, dedup joins, instantaneous queue depth
    and busy workers, worker count, the window-queue counters
    ([windows_*]), and the store's counters when one is
    configured. Also publishes the [serve.*] telemetry counters. *)

val metrics_text : t -> string
(** The one-shot plaintext metrics dump behind
    [bor serve --metrics-socket]: one [bor_serve_<name> <value>] line
    per {!stats} entry plus a per-job
    [bor_serve_job_inflight_windows{job="<key>"}] gauge. *)

val shutdown : t -> unit
(** Close the queue, drain it in the calling domain too (every queued
    job still runs), join the workers. Idempotent. *)
