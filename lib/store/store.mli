(** A content-addressed store: a directory of immutable entries named
    by their {!Key}, each holding an opaque payload (a rendered serve
    result, written by [Bor_exec.Backend.run_cached]).

    Guarantees, in cache-speak (docs/SERVE.md has the full contract):

    - {b Never serves bad bytes.} Every entry is framed with a magic
      string and a trailing SHA-256 of the payload; {!find} verifies
      both on every read and treats any mismatch — truncation, bit
      rot, a torn write from a crashed process — as a miss, deleting
      the offender so the caller recomputes.
    - {b Concurrent writers race safely.} A writer streams into a
      uniquely named temp file in the same directory and publishes
      with [rename(2)], so readers only ever observe complete entries;
      two writers racing on one key both publish valid (and, keys
      being content addresses, identical) bytes — last rename wins.
    - {b Bounded.} With [max_bytes] set, each {!put} evicts
      least-recently-used entries (access order is kept by bumping an
      entry's mtime on every hit) until the directory fits the budget;
      the entry just written is never the victim.

    All counters are atomics: a store value may be shared freely
    across the scheduler's worker domains. *)

type t

type stats = {
  st_hits : int;  (** [find] served a validated payload *)
  st_misses : int;  (** [find] found no entry *)
  st_corrupt : int;
      (** entries that failed validation and were deleted (each also
          behaves as a miss for the caller) *)
  st_puts : int;  (** entries published *)
  st_evictions : int;  (** entries removed by the LRU budget *)
}

val create : ?max_bytes:int -> string -> (t, string) result
(** Open (creating directories as needed) a store rooted at the given
    path. [max_bytes], when given, must be positive: the LRU budget in
    bytes of on-disk entry files. [Error] on unusable paths; never
    raises. *)

val find : t -> Key.t -> string option
(** The validated payload, or [None] (absent or corrupt — corrupt
    entries are deleted and counted in {!stats}). A hit refreshes the
    entry's LRU position. *)

val put : t -> Key.t -> string -> (unit, string) result
(** Publish a payload under a key (atomic tmp-write + rename), then
    enforce the LRU budget. I/O failures come back as [Error] with the
    temp file cleaned up; the store is never left with a partial
    entry. *)

val stats : t -> stats
