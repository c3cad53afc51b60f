(** Ranked-set window selection for sampled simulation.

    Fixed-period (SMARTS-style) sampling pays the full detailed-window
    budget for every candidate, however little CPI information the
    window carries. Ranked-set sampling spends the cheap part — a
    per-window feature signature collected from functional-warming
    counters — on {e every} candidate, and the expensive part (detailed
    simulation) on one candidate per set of [bands] consecutive
    candidates: the one holding the set's cycling order statistic when
    the set is ranked by a warming-CPI proxy. With a signature that
    correlates with true window CPI, the selected windows stratify the
    CPI distribution, so the mean estimator needs several-fold fewer
    detailed windows for the same error (the classical ranked-set
    sampling result; see docs/SAMPLING.md).

    The selector is streaming: it buffers at most [bands] candidate
    payloads (checkpoints, in the sampled pipeline) and is driven
    entirely by the warming sweep, so selection is a pure function of
    the candidate signature sequence and the seed — independent of how
    many worker domains later run the selected windows. *)

type signature = {
  instructions : int;  (** instructions warmed across the candidate period *)
  loads : int;
  stores : int;
  branches : int;  (** conditional branches (instruction-mix bucket) *)
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  mispredicts : int;
      (** warming-model branch mispredicts (predicted-stream
          mismatches; the [mispredicts] field of the sweep's
          {!Bor_uarch.Block.warm} record) *)
}

val sub : signature -> signature -> signature
(** [sub a b] is the per-field difference — the delta of two cumulative
    counter snapshots, i.e. one candidate period's worth of features. *)

val score : signature -> float
(** Warming-CPI proxy: a fixed latency-weighted penalty model
    [(instructions + w_miss·misses + w_mispredict·mispredicts + …) /
    instructions]. The absolute value is meaningless — only the ranking
    it induces matters, so the weights are deliberately simple
    (documented in docs/SAMPLING.md) rather than calibrated per
    configuration. [0.] when the signature is empty. *)

type 'a selector

val selector : ?seed:int -> bands:int -> unit -> 'a selector
(** [bands] is the set size K (>= 1; [1] selects every candidate —
    plain fixed-period sampling). [seed] rotates the cycling order
    statistic so the phase of the rank cycle is plan-seeded.

    @raise Invalid_argument when [bands < 1]. *)

val push : 'a selector -> 'a -> signature -> 'a option
(** Offer the next candidate in schedule order. Returns [Some payload]
    when this candidate completes a set of [bands]: the payload of the
    set's member ranked [r]-th by {!score} (ties broken by arrival
    order), where [r] cycles over [0 .. bands-1] from set to set —
    balanced ranked-set sampling, so every rank is measured equally
    often and the selected-window mean stays an unbiased CPI
    estimator. *)

val drain : 'a selector -> 'a option
(** Rank and select from the final partial set (fewer candidates than
    [bands]; the cycling rank is clamped to the set size). [None] when
    no candidates are pending. The selector is empty afterwards. *)

val candidates : _ selector -> int
(** Candidates offered so far. *)

val sets : _ selector -> int
(** Completed selections so far (including a final {!drain}). *)
