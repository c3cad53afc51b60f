(** Zipf-distributed sampling over item ranks [0 .. n-1].

    Method-invocation frequencies in real programs are heavy-tailed; the
    DaCapo-like synthetic workloads draw method ids from this
    distribution (rank 0 is the hottest method). *)

type t

val create : n:int -> alpha:float -> t
(** [create ~n ~alpha] precomputes the CDF of [P(k) ∝ 1/(k+1)^alpha] over
    [n] ranks. [n] must be positive and [alpha] non-negative ([alpha = 0]
    is the uniform distribution). *)

val probability : t -> int -> float
(** [probability t k] is the exact probability of rank [k]. *)

val sample : t -> Prng.t -> int
(** Draw a rank via binary search on the CDF; O(log n). *)
