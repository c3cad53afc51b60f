(** Metropolis–Hastings search over BRISC sequences — the
    superoptimizer proper ([docs/OPT.md]).

    The search runs [chains] independent MCMC chains for [rounds]
    synchronization rounds of [iters] proposals each. Every round, all
    chains restart from the global best-so-far (synchronization on the
    best), each with a fresh seed drawn from the master PRNG {e before}
    the chains run; chains are pure functions of their seed, so the
    result is byte-identical at every [domains] setting — parallelism
    ([Bor_exec.Pool]) only changes wall-clock. Proposals come from
    {!Bor_gen.Gen.apply_move}, costs from {!Cost}, and the best-so-far
    only ever moves to {e equivalent} candidates (zero filter
    mismatches, oracle-measured).

    A winning candidate is only reported [verified] after passing two
    independent checks the search itself never used: equivalence on a
    {e fresh} vector set (different [vector_seed]) and the ten-way
    differential ({!Bor_gen.Diff.run}). *)

type params = {
  p_seed : int;
  p_rounds : int;  (** synchronization rounds *)
  p_iters : int;  (** proposals per chain per round *)
  p_chains : int;  (** independent chains (not tied to [p_domains]) *)
  p_domains : int;  (** worker domains; affects wall-clock only *)
  p_rates : Bor_gen.Gen.rates;
  p_temperature : float;
  p_vectors : int;
  p_vector_seed : int;
  p_max_steps : int;
  p_max_cycles : int;
  p_oracle : Cost.oracle;
}

val default_params : params
(** seed 1, 8 rounds x 300 iters x 4 chains, 1 domain, default move
    rates, temperature 50, 4 vectors (seed 7), detailed oracle. *)

type counters = {
  n_proposals : int;  (** applicable proposals evaluated *)
  n_inapplicable : int;  (** moves that returned no neighbour *)
  n_acceptances : int;
  n_filter_rejects : int;  (** proposals with filter mismatches *)
  n_oracle_evals : int;  (** oracle (pipeline/sampled) runs paid for *)
}

type t = {
  r_target : Bor_isa.Program.t;
  r_best : Bor_isa.Program.t;
  r_target_cost : int;  (** the target's own oracle cycles *)
  r_best_cost : int;
  r_improved : bool;  (** [r_best_cost < r_target_cost] *)
  r_verified : bool;
      (** improved {e and} fresh-vector equivalent {e and} ten-way
          differential [Pass] *)
  r_note : string;  (** why verification failed; [""] when verified *)
  r_counters : counters;
  r_trajectory : (int * int) list;
      (** (round, best cost) after each synchronization round *)
}

val run :
  ?progress:(round:int -> best:int -> unit) ->
  params ->
  Bor_isa.Program.t ->
  (t, string) result
(** Search for a cheaper equivalent of one target. [Error] when the
    target itself fails its vectors or the oracle. Registers the
    [opt.*] telemetry family (docs/TELEMETRY.md) in the calling
    domain's registry; worker-domain simulator instruments are
    deliberately dropped so the registry is identical at every domain
    count. Never raises. *)

val report_json : t -> Bor_telemetry.Json.t
(** Machine-readable rewrite record (schema [bor-opt-rewrite-v1]):
    costs, lengths, counters, trajectory and both programs as assembly
    text. Integers and strings only — digest-safe. *)
