(** Statistical quality measurements of an LFSR-derived bit or take
    stream, backing the paper's claim that no LFSR idiosyncrasy makes it
    unsuitable for sampling (Section 4). *)

type report = {
  samples : int;
  ones_fraction : float;  (** fraction of 1s; ≈ 2{^n-1}/(2{^n}-1) *)
  serial_correlation : float;
      (** lag-1 autocorrelation of the bit stream *)
  longest_run : int;  (** longest run of equal bits *)
  chi2_pairs : float;
      (** chi-squared of consecutive-bit pairs against uniformity, 3
          degrees of freedom *)
}

val bit_stream : Lfsr.t -> position:int -> samples:int -> report
(** Clock the register [samples] times, observing the bit at [position]
    after each update. *)

val take_stream : Lfsr.t -> Prob.t -> k:int -> samples:int -> report
(** Observe the size-[k] AND-gate output (the branch-taken signal) over
    [samples] updates; [ones_fraction] should approach [(1/2)^k]. *)

val conditional_take_rate :
  Lfsr.t -> Prob.t -> k:int -> samples:int -> float
(** P(taken | previous taken): the dependence the paper analyses for
    adjacent-bit ANDing, where the conditional rate for k = 2 inflates
    to 50% instead of 25%. *)

val runs_chi2 : Lfsr.t -> samples:int -> max_run:int -> float
(** Chi-squared of the distribution of run lengths (runs of equal bits,
    capped at [max_run]) of the LSB stream against the geometric
    expectation of an ideal coin — low values mean LFSR runs are
    distributed like fair-coin runs. *)

val poker_chi2 : Lfsr.t -> samples:int -> m:int -> float
(** The classic poker test: chop the LSB stream into [m]-bit words and
    compare the word histogram against uniformity with chi-squared
    ([2^m - 1] degrees of freedom). *)
