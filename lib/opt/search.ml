module Prng = Bor_util.Prng
module Program = Bor_isa.Program
module Gen = Bor_gen.Gen
module Diff = Bor_gen.Diff
module Corpus = Bor_gen.Corpus
module Pool = Bor_exec.Pool
module Telemetry = Bor_telemetry.Telemetry
module Json = Bor_telemetry.Json

type params = {
  p_seed : int;
  p_rounds : int;
  p_iters : int;
  p_chains : int;
  p_domains : int;
  p_rates : Gen.rates;
  p_temperature : float;
  p_vectors : int;
  p_vector_seed : int;
  p_max_steps : int;
  p_max_cycles : int;
  p_oracle : Cost.oracle;
}

let default_params =
  {
    p_seed = 1;
    p_rounds = 8;
    p_iters = 300;
    p_chains = 4;
    p_domains = 1;
    p_rates = Gen.default_rates;
    p_temperature = 50.;
    p_vectors = 4;
    p_vector_seed = 7;
    p_max_steps = 200_000;
    p_max_cycles = 2_000_000;
    p_oracle = Cost.Detailed;
  }

type counters = {
  n_proposals : int;
  n_inapplicable : int;
  n_acceptances : int;
  n_filter_rejects : int;
  n_oracle_evals : int;
  n_memo_hits : int;
}

let zero_counters =
  {
    n_proposals = 0;
    n_inapplicable = 0;
    n_acceptances = 0;
    n_filter_rejects = 0;
    n_oracle_evals = 0;
    n_memo_hits = 0;
  }

let add_counters a b =
  {
    n_proposals = a.n_proposals + b.n_proposals;
    n_inapplicable = a.n_inapplicable + b.n_inapplicable;
    n_acceptances = a.n_acceptances + b.n_acceptances;
    n_filter_rejects = a.n_filter_rejects + b.n_filter_rejects;
    n_oracle_evals = a.n_oracle_evals + b.n_oracle_evals;
    n_memo_hits = a.n_memo_hits + b.n_memo_hits;
  }

(* opt.*, published once from the search's totals. *)
let search_counters =
  [|
    ("proposals", "proposals", "mutator proposals evaluated",
     fun c -> c.n_proposals);
    ("inapplicable", "proposals", "moves with no applicable neighbour",
     fun c -> c.n_inapplicable);
    ("acceptances", "proposals", "Metropolis acceptances",
     fun c -> c.n_acceptances);
    ("filter_rejects", "proposals",
     "proposals rejected by the functional filter",
     fun c -> c.n_filter_rejects);
    ("oracle_evals", "runs",
     "filter-passing proposals (cost-oracle cycles, memo hits included)",
     fun c -> c.n_oracle_evals);
    ("memo_hits", "proposals",
     "proposals answered from the candidate memo, no simulation",
     fun c -> c.n_memo_hits);
  |]

type t = {
  r_target : Program.t;
  r_best : Program.t;
  r_target_cost : int;
  r_best_cost : int;
  r_improved : bool;
  r_verified : bool;
  r_note : string;
  r_counters : counters;
  r_trajectory : (int * int) list;
}

(* The candidate memo's key: every field [Cost.evaluate] reads, as one
   string. (The polymorphic hash of the record itself looks at only a
   few words of it.) [No_sharing] makes structurally equal candidates
   marshal to equal strings whatever sharing their values have. *)
let memo_key (p : Program.t) =
  Marshal.to_string
    (p.Program.text, p.text_base, p.entry, p.data, p.data_base)
    [ Marshal.No_sharing ]

(* One chain: a pure function of (evaluator, params, seed, start,
   seen). The current point may wander through non-equivalent programs
   (the mismatch proxy gives MH a gradient there), but the chain's best
   only moves to equivalent, oracle-measured candidates — that is what
   a round's synchronization (and ultimately the report) picks from.

   [Cost.evaluate] is a pure function of the candidate, so a candidate
   met before is answered from the memo instead: [seen] holds earlier
   rounds' candidates and is only read while chains run; this round's
   new ones go into the chain's own table, returned for the barrier to
   merge. A chain's hits therefore never depend on its siblings. *)
let run_chain eval params ~seen ~seed ~start ~start_cost =
  let mine = Hashtbl.create 256 in
  let memo_hits = ref 0 in
  let evaluate cand =
    let k = memo_key cand in
    let known =
      match Hashtbl.find_opt mine k with
      | None -> Hashtbl.find_opt seen k
      | hit -> hit
    in
    match known with
    | Some e ->
      incr memo_hits;
      e
    | None ->
      let e = Cost.evaluate eval cand in
      Hashtbl.add mine k e;
      e
  in
  let rng = Prng.create ~seed in
  let cur = ref start and cur_cost = ref start_cost in
  let best = ref None and best_cost = ref start_cost in
  let proposals = ref 0
  and inapplicable = ref 0
  and acceptances = ref 0
  and filter_rejects = ref 0
  and oracle_evals = ref 0 in
  for _ = 1 to params.p_iters do
    let m = Gen.pick_move rng params.p_rates in
    match Gen.apply_move rng m !cur with
    | None -> incr inapplicable
    | Some cand ->
      incr proposals;
      let e = evaluate cand in
      if e.Cost.ev_oracle then incr oracle_evals;
      if e.Cost.ev_mismatches > 0 then incr filter_rejects;
      if
        Cost.accept rng ~temperature:params.p_temperature ~current:!cur_cost
          ~proposed:e.Cost.ev_cost
      then begin
        incr acceptances;
        cur := cand;
        cur_cost := e.Cost.ev_cost;
        if e.Cost.ev_mismatches = 0 && e.Cost.ev_cost < !best_cost then begin
          best := Some cand;
          best_cost := e.Cost.ev_cost
        end
      end
  done;
  ( !best,
    !best_cost,
    {
      n_proposals = !proposals;
      n_inapplicable = !inapplicable;
      n_acceptances = !acceptances;
      n_filter_rejects = !filter_rejects;
      n_oracle_evals = !oracle_evals;
      n_memo_hits = !memo_hits;
    },
    mine )

let verify params target best =
  (* Fresh vectors the search never saw: a different vector seed builds
     a disjoint input set, so a candidate overfit to the search vectors
     fails here. The set is several times larger than the search's —
     functional runs are cheap, and every extra vector shrinks the
     chance that a target whose behaviour depends on rarely-exercised
     input patterns slips through (verification is testing-based, as
     in STOKE; docs/OPT.md spells out the regime). *)
  match
    Cost.create ~vectors:((3 * params.p_vectors) + 6)
      ~vector_seed:(params.p_vector_seed + 7919)
      ~max_steps:params.p_max_steps ~max_cycles:params.p_max_cycles
      ~oracle:params.p_oracle target
  with
  | Error e -> (false, "fresh-vector evaluator: " ^ e)
  | Ok fresh -> (
    let e = Cost.evaluate fresh best in
    if e.Cost.ev_mismatches > 0 then
      ( false,
        Printf.sprintf "fresh-vector mismatch (%d units)"
          e.Cost.ev_mismatches )
    else
      match
        Diff.run ~max_steps:params.p_max_steps
          ~max_cycles:(max params.p_max_cycles 20_000_000)
          best
      with
      | Diff.Pass -> (true, "")
      | Diff.Fail f ->
        (false, Printf.sprintf "differential %s: %s" f.Diff.stage f.Diff.reason)
      | Diff.Budget b -> (false, "differential budget: " ^ b))

let run ?progress params target =
  match
    Cost.create ~vectors:params.p_vectors ~vector_seed:params.p_vector_seed
      ~max_steps:params.p_max_steps ~max_cycles:params.p_max_cycles
      ~oracle:params.p_oracle target
  with
  | Error e -> Error e
  | Ok eval ->
    (* The opt.* family registers in the calling domain only. Chains
       run with telemetry off in a throwaway registry, on whichever
       domain runs them, and report plain integers back, so the
       registry holds the same opt.* totals, target run and
       verification runs at every domain count. *)
    let sc = Telemetry.scope "opt" in
    let tel = Telemetry.family sc search_counters in
    let c_rounds =
      Telemetry.counter sc ~unit_:"rounds" ~doc:"synchronization rounds"
        "rounds"
    in
    let c_verified =
      Telemetry.counter sc ~unit_:"rewrites"
        ~doc:"rewrites that survived fresh-vector + differential checks"
        "verified_rewrites"
    in
    let h_best =
      Telemetry.histogram sc ~unit_:"cost"
        ~doc:"best cost observed after each synchronization round"
        "best_cost"
    in
    let target_cost = Cost.target_cycles eval in
    let master = Prng.create ~seed:params.p_seed in
    let best = ref target and best_cost = ref target_cost in
    let totals = ref zero_counters in
    let trajectory = ref [] in
    (* The candidate memo: earlier rounds' evaluations, grown only at
       the round barrier and dropped when the search returns, so it
       holds at most rounds x chains x iters entries. *)
    let seen = Hashtbl.create 1024 in
    for round = 1 to params.p_rounds do
      (* Chain seeds are drawn before any chain runs, so the seed
         stream — and therefore every chain — is independent of how
         the chains are scheduled across domains. *)
      let seeds =
        Array.init params.p_chains (fun _ -> Prng.next master)
      in
      let results =
        Pool.map ~domains:params.p_domains
          (fun seed ->
            fst
              (Telemetry.isolated ~enabled:false (fun () ->
                   run_chain eval params ~seen ~seed ~start:!best
                     ~start_cost:!best_cost)))
          seeds
      in
      (* Strict < in submission order: ties go to the earliest chain,
         making the fold independent of completion order. The memo
         grows in the same order; a candidate two chains both met has
         the same evaluation in each. *)
      Array.iter
        (fun (b, c, k, mine) ->
          totals := add_counters !totals k;
          Hashtbl.iter (Hashtbl.replace seen) mine;
          match b with
          | Some p when c < !best_cost ->
            best := p;
            best_cost := c
          | _ -> ())
        results;
      Telemetry.incr c_rounds;
      Telemetry.observe h_best !best_cost;
      trajectory := (round, !best_cost) :: !trajectory;
      match progress with
      | Some f -> f ~round ~best:!best_cost
      | None -> ()
    done;
    let t = !totals in
    Telemetry.publish tel t;
    let improved = !best_cost < target_cost in
    let verified, note =
      if improved then verify params target !best else (false, "no rewrite")
    in
    if verified then Telemetry.incr c_verified;
    Ok
      {
        r_target = target;
        r_best = !best;
        r_target_cost = target_cost;
        r_best_cost = !best_cost;
        r_improved = improved;
        r_verified = verified;
        r_note = note;
        r_counters = t;
        r_trajectory = List.rev !trajectory;
      }

let report_json r =
  let counters k =
    Json.Obj
      [
        ("proposals", Json.Int k.n_proposals);
        ("inapplicable", Json.Int k.n_inapplicable);
        ("acceptances", Json.Int k.n_acceptances);
        ("filter_rejects", Json.Int k.n_filter_rejects);
        ("oracle_evals", Json.Int k.n_oracle_evals);
        ("memo_hits", Json.Int k.n_memo_hits);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "bor-opt-rewrite-v1");
      ("target_len", Json.Int (Array.length r.r_target.Program.text));
      ("best_len", Json.Int (Array.length r.r_best.Program.text));
      ("target_cost", Json.Int r.r_target_cost);
      ("best_cost", Json.Int r.r_best_cost);
      ("improved", Json.Bool r.r_improved);
      ("verified", Json.Bool r.r_verified);
      ("note", Json.String r.r_note);
      ("counters", counters r.r_counters);
      ( "trajectory",
        Json.List
          (List.map
             (fun (round, cost) -> Json.List [ Json.Int round; Json.Int cost ])
             r.r_trajectory) );
      ("target_asm", Json.String (Corpus.to_asm r.r_target));
      ( "best_asm",
        Json.String
          (if r.r_verified then Corpus.to_asm r.r_best
           else Corpus.to_asm r.r_target) );
    ]
