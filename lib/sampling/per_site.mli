(** Per-site sampling frequencies.

    Because every branch-on-random instruction carries its own 4-bit
    frequency field, a JIT can give each instrumentation site its own
    rate and retune them independently — the paper's closing argument
    for convergent profiling ("each branch-on-random instruction encodes
    its own frequency"). This module manages a table of per-site
    frequencies over one shared LFSR engine, annealing each site
    individually: hot, already-characterised sites are slowed down while
    rare sites keep sampling fast, giving much better coverage of the
    cold tail for the same total sample budget than one global rate. *)

type t

val create :
  ?engine:Bor_core.Engine.t ->
  ?initial:Bor_core.Freq.t ->
  ?floor:Bor_core.Freq.t ->
  ?target_samples:int ->
  unit ->
  t
(** Every site starts at [initial] (default 1/2). Once a site has
    collected [target_samples] (default 64) at its current rate, its
    rate halves, until [floor] (default 1/4096). *)

val visit : t -> int -> bool
(** [visit t site] — sample this visit? Samples are recorded
    internally. *)

val frequency : t -> int -> Bor_core.Freq.t
(** The site's current (re-encoded) frequency field. *)

val profile : t -> Profile.t
(** Raw sample counts per site. *)

val estimated_counts : t -> (int * float) list
(** Unbiased per-site visit-count estimates: each sample is weighted by
    the period that was in force when it was taken (Horvitz–Thompson),
    so sites sampled at different rates remain comparable. *)

val samples : t -> int
