(** The branch-on-random frequency encoding (paper Section 3.2,
    Figure 5).

    A frequency is a 4-bit field [f]; the branch is taken with
    probability [(1/2)^(f+1)], giving the sixteen values from 50%
    ([f = 0]) down to ≈0.0015% ([f = 15]). Adding 1 to the exponent
    avoids wasting an encoding on the 100% case, which is an ordinary
    unconditional jump. *)

type t = private int

val of_field : int -> t
(** [of_field f] validates [f ∈ \[0, 15\]]. *)

val to_field : t -> int

val of_period : int -> t
(** [of_period n] is the frequency with expected period [n]; [n] must be
    a power of two in [2, 65536]. [of_period 1024] has field value 9. *)

val period : t -> int
(** Expected visits per take: [2^(field+1)]. *)

val probability : t -> float
(** [(1/2)^(field+1)]. *)

val and_width : t -> int
(** Number of LFSR bits ANDed to realise this probability:
    [field + 1]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as the period, e.g. "1/1024". *)
