(** Synthetic method-invocation streams standing in for the DaCapo
    benchmarks on Jikes RVM (paper Section 4).

    Substitution rationale (see DESIGN.md): profile {e accuracy} depends
    only on the statistics of the site-event stream. Each stream mixes:
    - a heavy-tailed (Zipf) population of method calls, and
    - a number of {e loop runs}: long stretches in which a fixed cycle
      of leaf methods is invoked repeatedly — the structure behind the
      paper's jython pathology (footnote 7), where any fixed sampling
      interval that is a multiple of the cycle length keeps sampling the
      same method of the cycle.

    Invocation counts are the paper's (fop 7M … luindex 212M) divided by
    [scale]. *)

type spec = {
  name : string;
  methods : int;  (** distinct methods drawn by the random phase *)
  invocations : int;  (** total stream length (already scaled) *)
  alpha : float;  (** Zipf exponent of the random phase *)
  periodic_fraction : float;  (** share of events inside loop runs *)
  pattern : int list;  (** the method-id cycle invoked by loops *)
  runs : int;  (** number of loop runs in the stream *)
  seed : int;
}

val names : string list
(** The eight paper benchmarks in the paper's order (sorted by total
    invocations): fop, antlr, bloat, lusearch, xalan, jython, pmd,
    luindex. *)

val spec : ?scale:int -> string -> spec
(** [spec name] builds the calibrated spec; [scale] (default 64)
    divides the paper's invocation count. Raises [Invalid_argument] for
    unknown names. *)

val events : spec -> (int -> unit) -> unit
(** Stream the method ids, calling the function once per invocation.
    Deterministic in [spec.seed]. *)
