(** Set-associative cache with true-LRU replacement (tag store only —
    data lives in the functional model). *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
  mutable evictions : int;  (** misses that displaced a valid line *)
}
(** The cache's only counters. [Pipeline] publishes them as the
    [cache.<name>.{hits,misses,evictions}] telemetry counters. *)

val create :
  ?reuse:t -> ?name:string -> size:int -> assoc:int -> line_bytes:int -> unit -> t
(** [line_bytes] must be a power of two, and [size] divisible by
    [assoc * line_bytes] into a power-of-two set count
    ([Invalid_argument] otherwise). [name] (default ["cache"]) names
    the cache in sanitizer diagnostics. With [~reuse:old] of the same
    line count, [old]'s tag and LRU stores are refilled to their empty
    state (one memset each) and shared instead of allocated; statistics
    are always new. [old] must not be used again. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. On a miss, the line is installed (allocate-on-miss) evicting
    the LRU way. *)

val probe : t -> int -> bool
(** Hit test without state change. *)

val stats : t -> stats

val check : ?cycle:int -> t -> unit
(** Sanitizer pass over the tag store: every set holds pairwise-distinct
    tags, every valid way carries an LRU stamp in [[0, clock]] with no
    two valid ways of a set sharing a nonzero stamp, and the stats
    counters are non-negative with [evictions <= misses <= accesses].
    Raises {!Bor_check.Check.Violation} (component [cache.<name>]) on
    the first broken invariant. Unconditional — callers gate on
    [!Bor_check.Check.on]. *)

val regions : t Region.t list
(** The replacement-relevant contents of the tag store, in checkpoint
    order: the LRU clock, then the [tags] and [lru] stores, one word
    per way (way [set * assoc + w]; a tag of -1 marks an invalid way).
    Stats are excluded: a restored cache counts from zero like a fresh
    one. *)

val reset_stats : t -> unit
val sets : t -> int

val state_digest : t -> string
(** SHA-256 of the resident line set: the sorted valid tags of every
    set, {e excluding} LRU recency — two caches that hold the same
    lines digest equally even if they were touched in different orders.
    The warming-equivalence tests compare full-detail and
    functionally-warmed caches with this. *)
