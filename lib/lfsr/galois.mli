(** Galois (internal-XOR) form of the LFSR.

    The Fibonacci form of {!Lfsr} XORs several taps into one input bit;
    the Galois form XORs the output bit into several positions instead.
    Both realise the same feedback polynomial: for hardware, the Galois
    form has a shorter critical path (one 2-input XOR per tap, none in
    series), which is why a production branch-on-random datapath might
    prefer it. The generated state sequences differ, but the period and
    the statistical properties are the same — {!matches_fibonacci_period}
    and the test suite check this. *)

type t

val create : ?seed:int -> Taps.t -> t
(** Same contract as {!Lfsr.create}: non-zero seed, reduced to the
    width. *)

val step : t -> int
(** Clock once; returns the new value. *)

val period : t -> int
(** Walk the register through a full cycle and count it (exponential in
    the width — intended for widths up to ~20 in tests). *)

val matches_fibonacci_period : Taps.t -> bool
(** True when the Galois and Fibonacci registers built from the same
    polynomial have equal periods (they always should). Walks both
    cycles. *)
