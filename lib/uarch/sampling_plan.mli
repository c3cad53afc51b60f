(** Schedule for sampled simulation (SMARTS-style): the run is divided
    into periods of [period] instructions; inside each period one
    detailed window executes on the full pipeline model — [warmup]
    committed instructions to fill the ROB and fetch queue (discarded),
    then [window] measured commits — and the rest of the period
    fast-forwards on the functional oracle with {e functional warming}
    (caches, BTB, predictor, RAS and the LFSR keep evolving; the
    orchestration lives in [Bor_exec.Sampled], which runs each window
    on a throwaway pipeline clone restored from a checkpoint).

    With a [seed], the window's offset inside each period is drawn
    uniformly from the slack ([period - warmup - window]) — the random
    phase that decorrelates the sample from periodic program behaviour
    (Ekman's ranked-set/repeated-subsampling observation). Without a
    seed every window sits at the start of its period.

    A plan is the whole sampling spec: the schedule plus two window
    selection knobs (docs/SAMPLING.md). It is private, so every plan
    passes the one validator, {!make}. *)

type t = private {
  warmup : int;  (** detailed commits discarded before measuring, >= 0 *)
  window : int;  (** detailed commits measured per window, >= 1 *)
  period : int;  (** instructions per sampling period, >= warmup + window *)
  seed : int option;  (** random window phase when set *)
  rank_bands : int;  (** ranked-set size K, 1..64; 1 takes every window *)
  ci_target : float;
      (** stopping target, % of mean CPI, exact at 6 decimals; 0 = off *)
}

val max_rank_bands : int
(** [64], the [--domains] ceiling: a run buffers K checkpoints. *)

val make :
  ?seed:int -> ?rank_bands:int -> ?ci_target:float ->
  warmup:int -> window:int -> period:int -> unit -> (t, string) result
(** The one validating constructor; [Error] names the constraint that
    failed. The knobs default to plain fixed-period sampling (K = 1,
    target 0); a target of [-0.] is stored as [0.]. *)

val with_selection :
  ?rank_bands:int -> ?ci_target:float -> t -> (t, string) result
(** [t] with the given knobs replaced, validated by {!make}. *)

val of_string : string -> (t, string) result
(** Parse ["W:D:P"] or ["W:D:P:SEED"] (the [--sample] flag syntax):
    warmup, window (detail length), period, optional phase seed. The
    knobs take their defaults. *)

val to_string : t -> string
(** Inverse of {!of_string}: the schedule only. The knobs never move
    the sweep's capture points, so shard keys print just this and jobs
    differing only in a knob share window units. *)

val key_lines : t option -> string list
(** The plan's lines in a result key's preimage: [plan=W:D:P[:SEED]]
    ([plan=-] for none), then [rank_bands=K] and [ci_target=%.6f] only
    at non-default values, so every older key keeps its hex. *)

val slack : t -> int
(** [period - warmup - window]: instructions per period left to
    functional warming (the window's offset budget). *)

val phase_stream : t -> unit -> int
(** [phase_stream t] is a generator of successive per-period window
    offsets, each in [[0, slack t]]. Deterministic in [t.seed]; the
    constant function [0] when [seed] is [None]. *)

(** {2 CPI estimation} *)

type estimate = {
  windows : int;  (** number of measured windows *)
  cpi_mean : float;
  cpi_ci95 : float;
      (** half-width of the normal-approximation 95% confidence
          interval of the mean; 0 with fewer than two windows *)
  cycles_estimate : float;  (** [cpi_mean *. instructions] *)
}

val estimate : cpi_samples:float list -> instructions:int -> estimate
(** Extrapolate whole-run cycles from per-window CPI samples. An empty
    sample list yields the zero estimate. *)
