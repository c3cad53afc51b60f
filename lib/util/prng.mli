(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Used exclusively for {e workload generation and test-case generation}.
    The branch-on-random instruction itself never uses this module: its
    randomness comes from {!Bor_lfsr.Lfsr}, as in the paper's hardware
    proposal. Keeping the two sources separate ensures experiments measure
    the LFSR's quality, not the host PRNG's. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is a pure function of
    [seed]. *)

val copy : t -> t
(** Independent copy at the current position. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator, for decorrelated sub-streams. *)

val next : t -> int
(** Next raw 62-bit non-negative value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)
