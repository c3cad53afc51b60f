(** Cost model for the stochastic superoptimizer ([bor opt]):

    {v cost = mismatches x 1000 + pipeline cycles v}

    The correctness term comes from a fast equivalence {e filter} — the
    functional simulator run over a fixed, seeded set of test-input
    vectors, comparing the complete final architectural state (all 32
    registers and the whole data segment) against the target's. Vector
    0 is always the clean machine state the timing oracle itself uses,
    so a candidate that passes the filter is guaranteed to halt on the
    state the oracle will run it from. The performance term comes from
    the cost {e oracle} — the detailed pipeline (or, with [Sampled],
    SMARTS-style sampled simulation) via {!Bor_exec.Backend} — and is
    only paid for candidates that pass the filter; filtered-out
    candidates get a length-based cycles proxy so Metropolis–Hastings
    still sees a gradient through non-equivalent regions.

    Everything here is a pure function of the evaluator, the candidate
    program and the PRNG passed to {!accept}: same seeds, same costs,
    same accept/reject decisions — on any domain. *)

type oracle =
  | Detailed  (** full-detail pipeline cycles *)
  | Sampled of Bor_uarch.Sampling_plan.t
      (** rounded [sp_cycles_estimate] from sampled simulation *)
(** Either way the oracle charges {e whole-program} cycles:
    region-of-interest markers in the measured candidate are
    neutralized to [Nop] first, so a search can never lower its cost
    by shrinking the measured region instead of the program. *)

type t
(** An evaluator: the target program, its test-input vectors, the
    expected final state per vector, and the target's own oracle
    cycles. *)

val create :
  ?vectors:int ->
  ?vector_seed:int ->
  ?max_steps:int ->
  ?max_cycles:int ->
  ?oracle:oracle ->
  Bor_isa.Program.t ->
  (t, string) result
(** Build an evaluator for one target. [vectors] (default 4, minimum 1)
    is the total vector count including the clean vector 0; the others
    randomize every register above [gp] and the whole data segment from
    a PRNG seeded with [vector_seed] (default 7). [max_steps] (default
    200000) bounds each functional filter run; [max_cycles] (default
    2e6) bounds each oracle run. [Error] when the target itself fails
    any vector or the oracle — such a target cannot be optimized. *)

val target_cycles : t -> int
(** The target's own oracle cycles — also its cost (mismatches = 0). *)

val vector_count : t -> int

type eval = {
  ev_mismatches : int;
      (** summed state-difference units over all vectors (registers +
          data bytes that differ, capped at 64 per vector; a vector the
          candidate faults or times out on counts the full cap) *)
  ev_cycles : int;
      (** oracle cycles when [ev_mismatches = 0]; otherwise the proxy
          [target_cycles + 4 x (len - target_len)], clamped at 0 *)
  ev_cost : int;  (** [ev_mismatches x 1000 + ev_cycles] *)
  ev_oracle : bool;  (** whether an oracle run was paid for *)
}

val evaluate : t -> Bor_isa.Program.t -> eval
(** Cost of one candidate against this evaluator's target. Never
    raises; simulator faults, sanitizer violations and budget blowouts
    surface as mismatch units or, when the oracle itself fails on a
    filter-passing candidate, a cost so large it is never accepted. *)

val accept :
  Bor_util.Prng.t -> temperature:float -> current:int -> proposed:int -> bool
(** One Metropolis–Hastings decision. [proposed <= current] is accepted
    without consuming any randomness; otherwise, with [temperature <=
    0] the move is rejected (again consuming nothing), and with
    positive temperature exactly one float is drawn and the move is
    accepted iff [Prng.float rng < exp (-(proposed - current) /
    temperature)]. The draw discipline is part of the contract —
    [test/test_opt.ml] pins it. *)
