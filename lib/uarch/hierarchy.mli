(** Two-level cache hierarchy: split L1 instruction/data caches over a
    shared L2, with the paper's latencies (L2 8 cycles, memory 140). *)

type t

type port = I | D

val create : ?reuse:t -> Config.t -> t
(** Empty caches. [~reuse:old] hands each level [old]'s level as
    {!Cache.create}'s [reuse]. *)

val access : t -> port -> int -> int
(** [access t port addr] returns the load-to-use latency in cycles and
    updates the cache state (allocations in L1 and L2). *)

val access_miss : t -> port -> int -> int
(** Like {!access} but returns -1 on an L1 hit and the miss latency
    otherwise, in one tag walk — the front end's probe-or-stall hot
    path. Cache state evolves exactly as under {!access}. *)

val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t
val reset_stats : t -> unit

val check : ?cycle:int -> t -> unit
(** Sanitizer pass: {!Cache.check} on all three levels plus the
    cross-level traffic identity [l2.accesses = l1i.misses +
    l1d.misses] (every L1 miss forwards to L2 exactly once; stats on
    the three levels reset together). Raises
    {!Bor_check.Check.Violation} on the first broken invariant.
    Unconditional — callers gate on [!Bor_check.Check.on]. *)

val regions : t Region.t list
(** {!Cache.regions} of [l1i], [l1d] and [l2], in that order, named
    [l1i.clock], [l1i.tags] and so on. *)

val state_digests : t -> (string * string) list
(** [("l1i", d); ("l1d", d); ("l2", d)] per-level {!Cache.state_digest}
    values, so a warming-equivalence regression names the level that
    broke. *)
