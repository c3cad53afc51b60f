(** Branch target buffer: direct-mapped tagged target store consulted
    at fetch for predicted-taken conditional branches.

    Branch-on-random never inserts or hits here (paper §3.3 point 7);
    unconditional direct jumps are resolved by pre-decode and do not
    need it either. Aliasing between entries is real: a hit with a
    stale target redirects fetch to the wrong place, discovered at
    resolution. *)

type t

val create : ?reuse:t -> entries:int -> unit -> t
(** An empty BTB. With [~reuse:old] of the same size, [old]'s stores
    are refilled and taken over (fresh instruments; [old] must not be
    used again). *)

val lookup : t -> pc:int -> int option

val lookup_target : t -> pc:int -> int
(** Like {!lookup} but -1 on a miss: the fetch-stage hot path, no
    option allocation. *)

val insert : t -> pc:int -> target:int -> unit

val regions : t Region.t list
(** The full target store, in checkpoint order: per entry, one word in
    [tags] (the entry's pc, -1 when invalid) and one in [targets]. *)

val state_digest : t -> string
(** SHA-256 of every valid (slot, pc, target) entry, for the
    warming-equivalence tests. *)
