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

    Each distinct candidate is paid for once per search. A memo keyed
    on the candidate's encoded text, text base, entry point, data and
    data base holds its {!Cost.eval}. Each chain adds to a table of its
    own for its round and reads earlier rounds' union, which grows only
    at the round barrier, in chain submission order; so every chain
    sees the same hits at every [domains] and stays a pure function of
    its seed. The memo lives for one {!run} and holds at most
    [rounds x chains x iters] entries.

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
  n_oracle_evals : int;
      (** proposals that passed the filter and so carry oracle cycles,
          whether measured now or answered by the memo *)
  n_memo_hits : int;
      (** proposals answered from the candidate memo, with no filter
          or oracle run; at most [n_proposals] *)
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
    domain's registry, next to the instruments of the target's own
    oracle run and of the winner's verification. The chains run with
    telemetry off at every domain count, so the registry is identical
    at every [domains]. Never raises. *)

val report_json : t -> Bor_telemetry.Json.t
(** Machine-readable rewrite record (schema [bor-opt-rewrite-v1]):
    costs, lengths, counters, trajectory and both programs as assembly
    text. Integers and strings only — digest-safe. *)
