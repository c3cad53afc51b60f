(** Content addresses for simulation artifacts.

    A key is the SHA-256 of a canonical, versioned preimage covering
    everything a run's output is a pure function of: the program's
    serialized image bytes, the {e complete} timing configuration
    (every {!Bor_uarch.Config.t} field, canonicalized field-by-field),
    the sampling plan (or its absence), and the backend kind. Two jobs
    share a key exactly when PR 5's purity argument says they must
    produce byte-identical results — which is what lets {!Store}
    memoize results, and lets the serve scheduler dedupe in-flight
    work (docs/SERVE.md).

    The preimage is kept alongside the digest so [bor digest --explain]
    and the tests can show {e why} two keys differ. *)

type t

val make :
  program:Bor_isa.Program.t ->
  ?config:Bor_uarch.Config.t ->
  ?plan:Bor_uarch.Sampling_plan.t ->
  kind:string ->
  unit ->
  t
(** [config] defaults to {!Bor_uarch.Config.default}; [plan] defaults
    to absent. The plan contributes {!Bor_uarch.Sampling_plan.key_lines}:
    its schedule, plus its ranked-set / online-stopping knobs only at
    non-default values, so every pre-existing key hex is unchanged and
    a default-knob job shares its address with historical results —
    which is sound, because the defaults reproduce the historical
    behavior byte-for-byte. [kind] is a short token naming the backend
    or artifact family (["detailed"], ["sampled"], ["checkpoint"],
    ...).
    @raise Invalid_argument if [kind] is empty or contains a newline
    (the preimage is line-framed). *)

val shard :
  program_digest:string ->
  ?config:Bor_uarch.Config.t ->
  plan:Bor_uarch.Sampling_plan.t ->
  boundary:int ->
  unit ->
  t
(** The address of one warmed window checkpoint — a {e shard} — in a
    sampled run: the sweep state captured at schedule position
    [boundary] (the period index, 0-based). A shard is a pure function
    of (program image, config, plan schedule, boundary): the whole
    schedule ({!Bor_uarch.Sampling_plan.to_string}) is included because
    boundary placement depends on every schedule field (the random
    offset is drawn from the plan's slack), while the plan's selection
    knobs and cycle budgets are deliberately excluded — they never move
    the sweep's capture points, so jobs differing only in those knobs
    share shards. The serve window queue keys its work
    units by this address; nothing stores a shard under it. Uses a
    separate ["bor-shard-v1"] preimage family; no existing
    ["bor-key-v1"] hex changes.
    @raise Invalid_argument on a negative [boundary]. *)

val hex : t -> string
(** The content address: 64 lowercase hex characters. *)

val preimage : t -> string
(** The canonical text the address digests (program {e digest}, not the
    raw bytes, appears here — the bytes themselves are hashed first). *)

val canon_config : Bor_uarch.Config.t -> string
(** One-line [field=value] rendering of every configuration field, in
    declaration order, then a constant [sample=-] token kept from a
    retired field so existing addresses do not move. Destructures the
    record completely, so adding a config field without extending the
    canonicalization is a compile error, not a silent cache-aliasing
    bug. *)
