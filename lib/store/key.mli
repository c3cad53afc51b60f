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
  ?rank_bands:int ->
  ?ci_target:float ->
  kind:string ->
  unit ->
  t
(** [config] defaults to {!Bor_uarch.Config.default}; [plan] defaults
    to absent (canonicalized as ["-"]). [rank_bands] (default [1]) and
    [ci_target] (default [0.]) are the sampled backend's ranked-set /
    online-stopping knobs; they join the preimage {e only} at
    non-default values, so every pre-existing key hex is unchanged and
    a default-knob job shares its address with historical results —
    which is sound, because the defaults reproduce the historical
    behavior byte-for-byte. [kind] is a short token naming the backend
    or artifact family (["detailed"], ["sampled"], ["checkpoint"],
    ...).
    @raise Invalid_argument if [kind] is empty or contains a newline
    (the preimage is line-framed), or if [ci_target] fails
    {!ci_target_exact}. *)

val ci_target_exact : float -> bool
(** Whether [x]'s [%.6f] rendering — the form [ci_target] takes in the
    preimage and on the wire — reads back as [x] itself. A target that
    fails would share its key with every neighbour that rounds to the
    same six decimals (2.0000001 and 2.0000004), or, below 5e-7, render
    as the default [0.000000] while running a different job. *)

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
    of (program image, config, plan, boundary): the plan is included
    {e whole} because boundary placement depends on every plan field
    (the random offset is drawn from the plan's slack), while
    rank-bands, CI target and cycle budgets are deliberately excluded —
    they never move the sweep's capture points, so jobs differing only
    in those knobs share shards. The serve window queue keys its work
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

val pp : Format.formatter -> t -> unit
