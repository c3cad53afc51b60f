(** SMARTS-style sampled simulation over checkpointed windows,
    optionally spread across OCaml 5 domains.

    One pipeline — the {e sweep} — executes the whole program under
    functional warming. At each period's window boundary it emits a
    {!Checkpoint}; every detailed window then runs on its own freshly
    created pipeline seeded from its checkpoint and discarded
    afterwards. A window is therefore a pure function of its
    checkpoint, so the windows can execute in any order on any number
    of domains: CPI samples are reassembled in window order, each
    window's telemetry delta is absorbed in window order, and the
    results — CPI, confidence interval, the whole telemetry registry —
    are identical at every domain count, including [domains = 1]
    (which runs the same capture/restore path inline).

    Every run takes one path: a ranked-set selector and an online
    stopping rule, both always present (see [docs/SAMPLING.md]), set
    by the plan's two knobs. Fixed-period sampling is their degenerate
    case — [K = 1] and a target of [0], the defaults — not a separate
    branch.

    - {e Ranked-set selection} ([plan.rank_bands = K]): window boundaries
      are {e candidates}, scored by a cheap warming signature
      ({!Bor_sampling.Rank}); each consecutive set of [K] candidates
      contributes one detailed window, chosen by a cycling order
      statistic, cutting the detailed-window count by ~[K] while
      covering the program's behavior spectrum by construction. A
      candidate is scored by the stretch up to the next boundary, so
      its checkpoint is dispatched one period after capture; at
      [K = 1] every candidate is selected.
    - {e Online stopping} ([plan.ci_target]): CPI samples fold into a
      streaming estimate ({!Bor_sampling.Stopping}) and the run stops
      dispatching windows once the 95% CI half-width falls below the
      target percentage of the mean; a target of [0] never stops. The
      stop index is re-derived at merge time from the in-order sample
      stream, so early-stopped runs are byte-identical at every domain
      count; off-thread dispatch may overrun the stop index, and those
      windows (results and telemetry deltas both) are discarded. The
      sweep always warms to the end of the program either way. *)

(** {2 Window execution}

    The runner interface, documented field by field in {!Window}. *)

type window_entry = Window.window_entry = {
  e_result : (Bor_uarch.Pipeline.window_result, string) result;
  e_tel : Bor_telemetry.Telemetry.export option;
}

type exec_ctx = Window.exec_ctx = {
  xc_window :
    Checkpoint.t -> (Bor_uarch.Pipeline.window_result, string) result;
  xc_deliver : int -> window_entry -> unit;
  xc_digest : string;
  xc_plan : Bor_uarch.Sampling_plan.t;
  xc_max_cycles : int;
  xc_telemetry : bool;
  xc_stopped : unit -> bool;
}

type runner = Window.runner = {
  r_dispatch : index:int -> boundary:int -> Checkpoint.t -> unit;
  r_drain : unit -> unit;
}
(** How {!run_on} executes detailed windows: inline at [domains = 1],
    on a private {!Wqueue} at [domains > 1], or through an external
    runner such as the serve global window queue. *)

type stats = {
  sp_windows : int;  (** detailed windows that produced a CPI sample *)
  sp_instructions : int;  (** total instructions the sweep executed *)
  sp_warmed : int;
      (** instructions executed under functional warming — the whole
          program, since windows run on clones off the sweep *)
  sp_detailed : int;  (** oracle instructions executed inside windows *)
  sp_detailed_cycles : int;  (** cycles simulated in detail, all windows *)
  sp_cpi : float;  (** mean CPI over the measured windows *)
  sp_cpi_ci95 : float;  (** 95% confidence half-width of [sp_cpi] *)
  sp_cycles_estimate : float;  (** extrapolated whole-run cycles *)
  sp_stopped : bool;
      (** the stopping rule truncated the window set before the
          schedule ran out (always [false] at a CI target of [0]) *)
}

val run_on :
  ?max_cycles:int ->
  plan:Bor_uarch.Sampling_plan.t ->
  ?domains:int ->
  ?runner:(exec_ctx -> runner) ->
  Bor_uarch.Pipeline.t ->
  (stats, string) result
(** Run the whole program under the sampling schedule [plan] on a
    freshly created pipeline. [domains] (default [1], capped at 64) is
    how many threads execute detailed windows: [1] runs them inline;
    [N > 1] runs them on a private {!Wqueue} with up to [N - 1]
    {!Pool} helpers plus the sweep thread, which help-executes whenever
    it is [max 4 (2 * N)] windows ahead and while draining.
    [max_cycles] (default 2e9) bounds each window individually.

    Registers the [sampling.*] telemetry counters — only in sampled
    runs, never in full-detail ones — plus [sampling.rank.*] when
    [rank_bands > 1] and [sampling.stop.*] when [ci_target > 0], and
    publishes them once, from the run's final counts; no value
    depends on the domain count. Never raises; simulator
    errors, sanitizer violations and oracle faults from the sweep or
    any window come back as [Error] (first window in window order
    wins).

    [runner] swaps in an external window executor (built from the
    {!exec_ctx} handed to the factory); when given, [domains] is
    ignored — worker provisioning is the runner's business. Results
    and telemetry remain byte-identical to the built-in runners:
    entries are merged strictly in window order, with each entry's
    [e_tel] export absorbed at its in-order merge point. *)

val pp : Format.formatter -> stats -> unit
