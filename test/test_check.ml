(* The sanitizer layer itself: violation plumbing, the global switch,
   and — most importantly — proof that enabling it changes nothing but
   wall-clock: a sanitized timing run must produce cycle-for-cycle
   identical statistics to an unsanitized one, while actually executing
   a nonzero number of checks. *)

module Check = Bor_check.Check
module Prng = Bor_util.Prng
module Pipeline = Bor_uarch.Pipeline
module Gen = Bor_gen.Gen

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_violation () =
  match
    Check.fail ~cycle:17 ~pos:3
      ~state:[ ("rob", "head=1 tail=2") ]
      ~component:"pipeline" ~invariant:"rob-shape" "head %d past tail %d" 9 8
  with
  | exception Check.Violation v ->
    Alcotest.(check string) "component" "pipeline" v.Check.component;
    Alcotest.(check string) "invariant" "rob-shape" v.Check.invariant;
    Alcotest.(check int) "cycle" 17 v.Check.cycle;
    Alcotest.(check int) "pos" 3 v.Check.pos;
    Alcotest.(check string) "message" "head 9 past tail 8" v.Check.message;
    let s = Check.to_string v in
    List.iter
      (fun part ->
        Alcotest.(check bool) ("to_string carries " ^ part) true
          (contains s part))
      [ "pipeline"; "rob-shape"; "cycle 17"; "head 9 past tail 8"; "rob" ]
  | _ -> Alcotest.fail "Check.fail returned"

let test_switch () =
  let prev = Check.enabled () in
  Check.set_enabled true;
  Alcotest.(check bool) "on" true (Check.enabled ());
  Check.set_enabled false;
  Alcotest.(check bool) "off" false (Check.enabled ());
  Check.set_enabled prev

let run_stats prog =
  let config =
    { Bor_uarch.Config.default with Bor_uarch.Config.deterministic_lfsr = true }
  in
  let p = Pipeline.create ~config prog in
  match Pipeline.run p with
  | Ok st -> st
  | Error e -> Alcotest.failf "pipeline: %s" e

(* Enabling the sanitizer must not change simulated behaviour at all —
   and it must actually check something. *)
let test_zero_impact () =
  let prog = Gen.gen_program (Prng.create ~seed:20260807) in
  let prev = Check.enabled () in
  Check.set_enabled false;
  let plain = run_stats prog in
  Check.set_enabled true;
  Check.reset_checks ();
  let sanitized = run_stats prog in
  let n = Check.checks () in
  Check.set_enabled prev;
  Alcotest.(check int) "cycles" plain.Pipeline.cycles
    sanitized.Pipeline.cycles;
  Alcotest.(check int) "instructions" plain.Pipeline.instructions
    sanitized.Pipeline.instructions;
  Alcotest.(check int) "squashed" plain.Pipeline.squashed
    sanitized.Pipeline.squashed;
  Alcotest.(check int) "brr taken" plain.Pipeline.brr_taken
    sanitized.Pipeline.brr_taken;
  Alcotest.(check bool) "ran checks" true (n > 0)

(* Component checks hold on post-run state reached through real
   traffic. *)
let test_component_checks () =
  let prog = Gen.gen_program (Prng.create ~seed:7) in
  let p = Pipeline.create prog in
  (match Pipeline.run p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pipeline: %s" e);
  let w = Pipeline.warm p in
  Bor_uarch.Hierarchy.check w.hier;
  Bor_uarch.Ras.check w.ras;
  Bor_sim.Machine.check (Pipeline.oracle p)

let test_sanitized_differential () =
  let prev = Check.enabled () in
  Check.set_enabled true;
  let outcome =
    Bor_gen.Diff.run (Gen.gen_program (Prng.create ~seed:190283))
  in
  Check.set_enabled prev;
  match outcome with
  | Bor_gen.Diff.Pass -> ()
  | Bor_gen.Diff.Fail { stage; reason } -> Alcotest.failf "%s: %s" stage reason
  | Bor_gen.Diff.Budget e -> Alcotest.failf "budget: %s" e

let () =
  Alcotest.run "check"
    [
      ( "check",
        [
          Alcotest.test_case "violation fields and rendering" `Quick
            test_violation;
          Alcotest.test_case "global switch" `Quick test_switch;
          Alcotest.test_case "sanitizer has zero behavioural impact" `Quick
            test_zero_impact;
          Alcotest.test_case "component checks pass on real traffic" `Quick
            test_component_checks;
          Alcotest.test_case "sanitized six-way differential" `Quick
            test_sanitized_differential;
        ] );
    ]
