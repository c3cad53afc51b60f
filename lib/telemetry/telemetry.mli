(** Zero-cost-when-disabled structured telemetry for the simulator:
    named monotonic counters, log2-bucket histograms and span timers,
    grouped by component scope.

    The registry is global and {e disabled by default}. While disabled,
    {!counter}/{!histogram}/{!span} return dead instruments that are
    never registered, and recording into one is a single
    load-and-branch — the timing simulator's hot loops pay essentially
    nothing. Enable telemetry {e before} creating the components to be
    observed ([Pipeline.create], [Engine.create], ...): instruments are
    registered at component-creation time.

    Names are ["<scope>.<name>"]; creating an already-registered name
    returns the existing instrument, so every fresh component instance
    of the same kind (e.g. the caches of successive pipeline runs)
    accumulates into the same counter. The full counter schema — every
    name, its unit, and when it increments — is documented in
    [docs/TELEMETRY.md].

    Determinism: no instrument reads a wall clock; spans and histograms
    record caller-supplied quantities (simulated cycles, counts). With
    fixed seeds, a snapshot is a pure function of the simulated work —
    the contract the [@bench-check] digest alias enforces. *)

type counter
type histogram
type span
type scope

val set_enabled : bool -> unit
(** Turn the registry on or off. Off (the default) makes instrument
    creation return dead objects; it does not retroactively silence
    instruments that were created while enabled.

    The registry (and this flag) is {e domain-local}: a freshly spawned
    domain (and every {!Bor_exec.Pool} helper, on a reused worker)
    starts disabled and empty, enables its own registry, and
    ships its instruments back to the parent with {!isolated}/{!absorb}.
    Single-domain programs see exactly the historical global-registry
    behavior. Instruments must never be shared across domains. *)

val is_enabled : unit -> bool

val clear : unit -> unit
(** Drop every registered instrument (used between bench experiments so
    each snapshot covers exactly one experiment). *)

val reset : unit -> unit
(** Zero every registered instrument, keeping registrations. *)

(** {2 Creation} *)

val scope : string -> scope
(** A component namespace, e.g. [scope "pipeline"] or
    [scope "cache.l1i"]. *)

val counter : scope -> ?unit_:string -> ?doc:string -> string -> counter
(** Named monotonic counter; [unit_] defaults to ["events"]. *)

val histogram : scope -> ?unit_:string -> ?doc:string -> string -> histogram
(** Log2-bucket histogram: bucket 0 counts zeros, bucket [i] counts
    values in [[2^(i-1), 2^i - 1]]. *)

val span : scope -> ?unit_:string -> ?doc:string -> string -> span
(** Span timer over caller-supplied durations (simulated cycles by
    default — never wall-clock). *)

(** {2 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val observe : histogram -> int -> unit
(** Negative observations clamp to zero. *)

val record : span -> int -> unit
(** Record one completed interval of the given duration. *)

(** {2 Record-backed counter families}

    A component that already keeps its own counts — a stats record, a
    set of atomics — publishes them instead of bumping a counter per
    event, so its counts have one store. This is the only way such
    counts reach the registry. *)

type 's family
(** One registry counter per field of an ['s], and the value each field
    had at the last {!publish}. *)

val family :
  scope -> (string * string * string * ('s -> int)) array -> 's family
(** [family sc [| (name, unit_, doc, read); ... |]] registers the
    counter ["<sc>.<name>"] for every field at once, as {!counter}
    would: a family created while the registry is enabled shows its
    zeros even if it is never published. *)

val publish : 's family -> 's -> unit
(** Add to each counter what its field ([read s]) gained since the
    last publish (since creation or {!restart} the first time).
    Publishing twice adds nothing the second time. Call it from the
    domain that created the family. *)

val restart : 's family -> unit
(** The counts were just zeroed (e.g. at a region-of-interest reset):
    the next {!publish} adds the fields' whole values. Publish first,
    or what the reset discards never reaches the registry. *)

(** {2 Snapshots} *)

val counters : unit -> (string * int) list
(** All registered counters, sorted by name. *)

val find_counter : string -> int option
(** Value of one registered counter by full dotted name. *)

val to_json : unit -> Json.t
(** The whole registry, sorted by name: counters as integers,
    histograms/spans as structured objects. Deterministic — suitable
    for digesting. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable dump, grouped by scope ([bor time --stats]). *)

(** {2 Cross-domain merge} *)

type export
(** A deep copy of one registry's instruments, sharing no mutable state
    with it — safe to move between domains. *)

val isolated : enabled:bool -> (unit -> 'a) -> 'a * export
(** Run [f] against a fresh, private registry (with the given enabled
    flag), returning its result together with everything it recorded;
    the caller's registry — instruments and enabled flag — is
    untouched and restored afterwards, even on exceptions. This is how
    a domain executes {e someone else's} work unit (e.g. a sampled
    window pulled from the serve window queue) and ships the telemetry
    delta to the owning job for an in-order {!absorb}, without mixing
    two jobs' counters. With [enabled:false] the export is empty. *)

val absorb : export -> unit
(** Fold an export into the calling domain's registry, creating any
    instruments it does not have yet: counter values, histogram buckets
    and span counts/totals add; extrema take min/max. Every merge
    operation commutes and associates, so absorbing per-window exports
    in any order reproduces exactly the totals of a single-registry
    sequential run. No-op while disabled.
    @raise Invalid_argument if an incoming instrument clashes with a
    registered one of a different kind under the same name. *)
