(** Self-contained SHA-256 (FIPS 180-4), used by the bench harness to
    fingerprint each experiment's [BENCH_*.json] output for the
    [@bench-check] determinism/regression alias. *)

val digest : string -> string
(** Lowercase hex digest (64 characters) of the whole input. *)

val digest_prefix : string -> int -> string
(** [digest_prefix s n] is [digest (String.sub s 0 n)], without the
    copy: a stamped encoding hashes its payload where it lies. Raises
    [Invalid_argument] unless [0 <= n <= String.length s]. *)
