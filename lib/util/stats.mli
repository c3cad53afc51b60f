(** Descriptive statistics used by the accuracy experiments and the
    LFSR quality tests. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val ci95_halfwidth : summary -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt n]). *)

val overlaps : summary -> summary -> bool
(** [overlaps a b] holds when the 95% confidence intervals of the two
    means intersect; the paper's "variation below the level of
    significance" criterion for the sensitivity analysis. *)

val chi_square : expected:float array -> observed:float array -> float
(** Pearson chi-squared statistic; bins with [expected = 0] are skipped. *)

(** Streaming mean/variance (Welford's algorithm), for accumulating
    per-cycle statistics without storing samples. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
end
