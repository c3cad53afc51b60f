(* Randomised differential testing of the execution modes, on top
   of the shared [Bor_gen] generator/differential library.

   Each case is a pure function of one integer seed: [Bor_gen.Gen]
   builds a random terminating BRISC program, and [Bor_gen.Diff] runs
   it under the functional simulator, the full-detail pipeline,
   functional warming, and sampled simulation — fixed-period and
   ranked-set, sequential and parallel — demanding identical
   final architectural state (all 32 registers, the data segment, and
   the retirement statistics). The pipeline runs use
   [deterministic_lfsr] so speculative LFSR clocks are unwound exactly
   (§3.4) and the committed branch-on-random stream provably matches
   the in-order stream.

   The pipeline sanitizer runs by default here (set BOR_SANITIZE=0 to
   opt out), so every case also audits the full invariant catalog of
   docs/FUZZING.md. On failure the offending program is written to
   _build's test directory as a ready-to-replay .s reproducer
   (bor fuzz <file> or bor time <file> replays it) and the failure
   message carries the path.

   Case count and master seed come from BOR_QCHECK_COUNT (default 200)
   and BOR_QCHECK_SEED; the master seed is printed up front and every
   failure report carries the per-case seed, so any failure replays
   exactly. *)

module Prng = Bor_util.Prng
module Gen = Bor_gen.Gen
module Diff = Bor_gen.Diff
module Corpus = Bor_gen.Corpus

let dump_dir = "gen_brisc_failures"

let check_case case_seed =
  let prog = Gen.gen_program (Prng.create ~seed:case_seed) in
  match Diff.run ~plan_seed:case_seed prog with
  | Diff.Pass -> true
  | Diff.Budget e ->
    QCheck.Test.fail_reportf
      "case seed %d: functional reference did not finish: %s" case_seed e
  | Diff.Fail { stage; reason } ->
    (* Satellite: persist the failing program as assembly next to the
       test binary so the failure is replayable without re-deriving it
       from the seed. *)
    let where =
      try
        let path =
          Corpus.write ~dir:dump_dir
            ~name:(Printf.sprintf "seed-%d-%s" case_seed stage)
            ~seed:case_seed
            ~note:(Printf.sprintf "%s: %s" stage reason)
            prog
        in
        Printf.sprintf "\nreproducer: %s/%s" (Sys.getcwd ()) path
      with _ -> ""
    in
    QCheck.Test.fail_reportf "case seed %d: %s: %s%s" case_seed stage reason
      where

(* Satellite property for the superoptimizer: on random generated
   targets, the search never reports a best cost above the target's,
   and any rewrite it reports as verified must be independently
   accepted by the ten-way differential (re-run here with a sampling
   plan the verifier never used) and must have survived the search's
   own enlarged fresh-vector equivalence check. Equivalence on
   arbitrary *other* input vectors is deliberately not asserted:
   verification is testing-based (docs/OPT.md), so a random target
   whose behaviour hinges on input patterns outside the fresh set's
   coverage can in principle slip through — that is STOKE's regime
   too, and a hard assertion on it would fail for statistical, not
   implementation, reasons. *)
let check_opt_case case_seed =
  let prog = Gen.gen_program (Prng.create ~seed:case_seed) in
  let params =
    {
      Bor_opt.Search.default_params with
      Bor_opt.Search.p_seed = case_seed;
      p_rounds = 1;
      p_iters = 25;
      p_chains = 1;
      p_domains = 1;
    }
  in
  match Bor_opt.Search.run params prog with
  | Error _ -> true (* target itself not optimizable (budget): skip *)
  | Ok r ->
    let open Bor_opt.Search in
    if r.r_best_cost > r.r_target_cost then
      QCheck.Test.fail_reportf
        "case seed %d: best cost %d exceeds target cost %d" case_seed
        r.r_best_cost r.r_target_cost
    else if not r.r_verified then true
    else begin
      (match Diff.run ~plan_seed:case_seed r.r_best with
      | Diff.Pass -> ()
      | Diff.Fail { stage; reason } ->
        QCheck.Test.fail_reportf
          "case seed %d: reported rewrite fails the differential (%s: %s)"
          case_seed stage reason
      | Diff.Budget e ->
        QCheck.Test.fail_reportf
          "case seed %d: reported rewrite blew the differential budget: %s"
          case_seed e);
      true
    end

(* Satellite property for ranked-set selection + CI stopping: on random
   programs, a same-seed re-run of the ranked sampled backend must be
   byte-identical — the stats record and the full telemetry JSON text
   both — and, when the run measured enough windows for the estimator
   to mean anything, the ranked CPI must land inside a loose error
   envelope of the detailed pipeline's true CPI (3 half-widths or 50%
   relative, whichever is looser: the generated programs are tiny, so
   the sampling noise floor is high — this is the same regime the
   bench's accuracy experiments quantify properly on real kernels). *)
let check_ranked_case case_seed =
  let prog = Gen.gen_program (Prng.create ~seed:case_seed) in
  let config =
    { Bor_uarch.Config.default with Bor_uarch.Config.deterministic_lfsr = true }
  in
  let plan =
    match
      Bor_uarch.Sampling_plan.make ~seed:case_seed ~rank_bands:4 ~ci_target:2.
        ~warmup:20 ~window:30 ~period:120 ()
    with
    | Ok p -> p
    | Error e -> QCheck.Test.fail_reportf "case seed %d: plan: %s" case_seed e
  in
  let domains = 1 + (abs case_seed mod 3) in
  let ranked_run () =
    let was = Bor_telemetry.Telemetry.is_enabled () in
    Bor_telemetry.Telemetry.clear ();
    Bor_telemetry.Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Bor_telemetry.Telemetry.clear ();
        Bor_telemetry.Telemetry.set_enabled was)
      (fun () ->
        let b =
          Bor_exec.Backend.sampled ~config ~plan ~max_cycles:20_000_000
            ~domains prog
        in
        match b.Bor_exec.Backend.run () with
        | Ok (Bor_exec.Backend.Sampled s) ->
          Ok
            ( s,
              Bor_telemetry.Json.to_string (Bor_telemetry.Telemetry.to_json ())
            )
        | Ok _ -> Error "unexpected report kind"
        | Error e -> Error e)
  in
  match ranked_run () with
  | Error _ -> true (* budget or pathological program: skip, as Diff does *)
  | Ok (s1, tel1) -> (
    (match ranked_run () with
    | Error e ->
      QCheck.Test.fail_reportf "case seed %d: ranked re-run failed: %s"
        case_seed e
    | Ok (s2, tel2) ->
      if s1 <> s2 then
        QCheck.Test.fail_reportf
          "case seed %d: ranked re-run stats differ: windows %d vs %d, CPI \
           %.6f vs %.6f"
          case_seed s1.Bor_exec.Sampled.sp_windows
          s2.Bor_exec.Sampled.sp_windows s1.Bor_exec.Sampled.sp_cpi
          s2.Bor_exec.Sampled.sp_cpi
      else if tel1 <> tel2 then
        QCheck.Test.fail_reportf
          "case seed %d: ranked re-run telemetry differs (%d vs %d bytes)"
          case_seed (String.length tel1) (String.length tel2));
    if s1.Bor_exec.Sampled.sp_windows < 8 then true
    else
      let detail =
        Bor_exec.Backend.detailed ~config ~max_cycles:20_000_000 prog
      in
      match detail.Bor_exec.Backend.run () with
      | Error _ | Ok (Bor_exec.Backend.Functional _)
      | Ok (Bor_exec.Backend.Warmed _)
      | Ok (Bor_exec.Backend.Sampled _) ->
        true
      | Ok (Bor_exec.Backend.Detailed ds) ->
        let open Bor_uarch.Pipeline in
        if ds.instructions = 0 then true
        else
          let true_cpi = float_of_int ds.cycles /. float_of_int ds.instructions in
          let err = Float.abs (s1.Bor_exec.Sampled.sp_cpi -. true_cpi) in
          let envelope =
            Float.max
              (3. *. s1.Bor_exec.Sampled.sp_cpi_ci95)
              (0.5 *. true_cpi)
          in
          if err > envelope then
            QCheck.Test.fail_reportf
              "case seed %d: ranked CPI %.6f vs detailed %.6f (error %.6f > \
               envelope %.6f over %d windows)"
              case_seed s1.Bor_exec.Sampled.sp_cpi true_cpi err envelope
              s1.Bor_exec.Sampled.sp_windows
          else true)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let () =
  (* Sanitize by default: this suite is the sanitizer's main workout. *)
  (match Sys.getenv_opt "BOR_SANITIZE" with
  | Some ("0" | "false" | "off" | "no") -> ()
  | _ -> Bor_check.Check.set_enabled true);
  let count = env_int "BOR_QCHECK_COUNT" 200 in
  let master_seed = env_int "BOR_QCHECK_SEED" 190283 in
  Printf.printf
    "gen_brisc: %d cases from master seed %d (BOR_QCHECK_COUNT / \
     BOR_QCHECK_SEED), sanitizer %s\n\
     %!"
    count master_seed
    (if Bor_check.Check.enabled () then "on" else "off");
  let case_seed =
    QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 0x3FFFFFFF)
  in
  let test =
    QCheck.Test.make ~count ~name:"functional = pipeline = warming = sampled"
      case_seed check_case
  in
  (* Each opt case runs a whole (tiny) search — dozens of simulator
     evaluations — so it gets a reduced case count. *)
  let opt_test =
    QCheck.Test.make
      ~count:(max 3 (count / 20))
      ~name:"opt rewrites pass the differential and never cost more"
      case_seed check_opt_case
  in
  (* Each ranked case runs the sampled backend twice plus a detailed
     reference, so it also gets a reduced case count. *)
  let ranked_test =
    QCheck.Test.make
      ~count:(max 5 (count / 10))
      ~name:"ranked sampling: byte-identical re-runs, CPI in envelope"
      case_seed check_ranked_case
  in
  exit
    (QCheck_base_runner.run_tests
       ~rand:(Random.State.make [| master_seed |])
       [ test; opt_test; ranked_test ])
