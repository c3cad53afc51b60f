(** Help-first parallelism over one process-wide set of long-lived
    OCaml 5 worker domains. Three kinds of caller share it: {!map}'s
    fan-out ([bor opt]'s search chains in {!Bor_opt.Search}, and
    [bench --jobs]), the private window queue of a standalone
    {!Sampled.run_on} at [domains > 1], and the [bor serve] scheduler,
    whose worker domains are copies of {!Wqueue.work}.

    Workers are spawned lazily, so that every copy a call offers finds
    a worker not already running one (an idle pool grows to the call's
    copies), never past {!max_workers}. Idle workers park on one mutex
    and condition and live until the process exits; they never keep it
    from exiting.

    The one primitive is {b help-first}: a caller offers copies of a
    body to the workers ({!help}), does its own share of the work, and
    then {!join}s, which cancels every copy no worker has claimed yet
    and waits only for copies that have already started. Progress
    never depends on a free worker, so a call made from inside another
    call's body (a nested map, a sampled run inside a map item) cannot
    deadlock. A reused worker starts every copy as a freshly spawned
    domain would: telemetry disabled and an empty registry.

    A copy may run until its owner stops it, as the scheduler's copies
    of {!Wqueue.work} run until {!Wqueue.close}. Such an owner stops
    them, then does their remaining work itself, then joins: {!join}
    waits for started copies and cancels unclaimed ones. *)

val max_workers : int
(** [64]: the most worker domains the pool spawns, and the most
    participants of one call — the 64 that [--domains] allows: a
    {!map}'s caller plus 63 helpers, or a scheduler's 64 copies. *)

val map : ?domains:int -> ?init:(unit -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f items] applies [f] to every item, with up to
    [domains] participants, at most {!max_workers}: the calling domain
    plus [domains - 1] helpers ([1], the default, runs sequentially in
    the calling domain and touches no worker). Items are claimed
    dynamically off a shared atomic cursor, so uneven item costs
    balance across participants; results land in the slot of the item
    that produced them, so the output order is the submission order
    regardless of completion order.

    [init] is per-participant setup, run once per call before that
    participant claims an item: in the caller, and in each helper that
    actually starts (a helper cancelled before any worker claims it
    runs nothing). It is the hook for domain-local state such as
    enabling the telemetry registry.

    If any [f] raises, every remaining claimed item still runs to
    completion, every started helper is waited for, and then the
    exception of the {e earliest} item (submission order) is re-raised
    in the caller — deterministic regardless of scheduling. *)

type crew
(** The helper copies one {!help} call offered. *)

val help : int -> (unit -> unit) -> crew
(** [help k body] offers [min k max_workers] copies of [body] to the
    workers and returns at once; the caller is expected to do its own
    share of the work next. [body] runs at most once per copy, on a
    worker, and only if a worker claims it before {!join}. *)

val join : crew -> unit
(** Cancel every copy no worker has claimed yet, wait for those that
    have started, and re-raise the first exception any copy raised.
    Call it exactly once per crew. *)
