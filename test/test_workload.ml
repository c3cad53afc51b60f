(* Tests for Bor_workload: DaCapo-like streams, the text generator, the
   microbenchmark and the Fig-12 applications. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --------------------------------------------------------------- Dacapo *)

let test_catalogue () =
  check
    Alcotest.(list string)
    "paper order"
    [ "fop"; "antlr"; "bloat"; "lusearch"; "xalan"; "jython"; "pmd"; "luindex" ]
    Bor_workload.Dacapo.names;
  Alcotest.check_raises "unknown"
    (Invalid_argument "Dacapo.spec: unknown benchmark nope") (fun () ->
      ignore (Bor_workload.Dacapo.spec "nope"))

let test_event_count_exact () =
  List.iter
    (fun name ->
      let spec = Bor_workload.Dacapo.spec ~scale:512 name in
      let n = ref 0 in
      Bor_workload.Dacapo.events spec (fun _ -> incr n);
      check Alcotest.int (name ^ " event count") spec.invocations !n)
    Bor_workload.Dacapo.names

let test_stream_deterministic () =
  let spec = Bor_workload.Dacapo.spec ~scale:512 "bloat" in
  let collect () =
    let acc = ref [] in
    Bor_workload.Dacapo.events spec (fun id -> acc := id :: !acc);
    !acc
  in
  check Alcotest.bool "same stream twice" true (collect () = collect ())

let test_with_seed_changes_stream () =
  let spec = Bor_workload.Dacapo.spec ~scale:512 "bloat" in
  let first n spec =
    let acc = ref [] in
    (try
       Bor_workload.Dacapo.events spec (fun id ->
           acc := id :: !acc;
           if List.length !acc >= n then raise Exit)
     with Exit -> ());
    !acc
  in
  check Alcotest.bool "different seeds differ" true
    (first 200 spec <> first 200 { spec with seed = 99 })

let test_scaling () =
  let s1 = Bor_workload.Dacapo.spec ~scale:64 "fop" in
  let s2 = Bor_workload.Dacapo.spec ~scale:128 "fop" in
  check Alcotest.int "half the events" (s1.invocations / 2) s2.invocations

let test_jython_resonance () =
  (* The calibrated jython stream must show the paper's Figure 9 outlier:
     counter accuracy well below branch-on-random at interval 2^10. *)
  let spec = Bor_workload.Dacapo.spec ~scale:128 "jython" in
  let events = Bor_workload.Dacapo.events spec in
  let sw =
    Bor_sampling.Experiment.accuracy_of events
      (Bor_sampling.Sampler.software_counter ~reset:1024 ())
  in
  let rnd =
    Bor_sampling.Experiment.accuracy_of events
      (Bor_sampling.Sampler.branch_on_random
         ~engine:(Bor_core.Engine.create ~seed:7 ())
         (Bor_core.Freq.of_period 1024))
  in
  check Alcotest.bool
    (Printf.sprintf "random (%.3f) beats counter (%.3f) by >= 3%%" rnd sw)
    true
    (rnd -. sw >= 0.03)

let test_pmd_resonates_only_at_8192 () =
  (* pmd's nested-loop cycle (2048) resonates with 2^13 but not 2^10. *)
  let spec = Bor_workload.Dacapo.spec ~scale:128 "pmd" in
  let events = Bor_workload.Dacapo.events spec in
  let acc interval sampler =
    Bor_sampling.Experiment.accuracy_of events (sampler interval)
  in
  let sw i = Bor_sampling.Sampler.software_counter ~reset:i () in
  let rnd i =
    Bor_sampling.Sampler.branch_on_random
      ~engine:(Bor_core.Engine.create ~seed:11 ())
      (Bor_core.Freq.of_period i)
  in
  let gap_1024 = acc 1024 rnd -. acc 1024 sw in
  let gap_8192 = acc 8192 rnd -. acc 8192 sw in
  check Alcotest.bool
    (Printf.sprintf "gap grows: %.3f at 2^10 vs %.3f at 2^13" gap_1024
       gap_8192)
    true
    (gap_8192 > gap_1024 +. 0.015)

(* ----------------------------------------------------------------- Text *)

let test_text_length_and_charset () =
  let t = Bor_workload.Text.generate ~seed:1 ~length:10_000 in
  check Alcotest.int "length" 10_000 (Bytes.length t);
  Bytes.iter
    (fun c ->
      check Alcotest.bool "printable" true
        ((c >= 'A' && c <= 'Z')
        || (c >= 'a' && c <= 'z')
        || c = ' ' || c = ',' || c = '.' || c = '\n'))
    t

(* Fractions of (upper, lower, other) characters: the three paths of
   the microbenchmark's classification branch. *)
let class_fractions bytes =
  let count p =
    Float.of_int (Seq.length (Seq.filter p (Bytes.to_seq bytes)))
    /. Float.of_int (max 1 (Bytes.length bytes))
  in
  let upper = count (fun c -> c >= 'A' && c <= 'Z')
  and lower = count (fun c -> c >= 'a' && c <= 'z') in
  (upper, lower, 1. -. upper -. lower)

let test_text_class_mix () =
  let t = Bor_workload.Text.generate ~seed:2 ~length:100_000 in
  let upper, lower, other = class_fractions t in
  check Alcotest.bool "uppercase words present" true (upper > 0.2);
  check Alcotest.bool "lowercase dominates" true (lower > upper);
  check Alcotest.bool "separators present" true (other > 0.05 && other < 0.4)

let prop_text_deterministic =
  QCheck.Test.make ~name:"same seed, same text" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 1 500))
    (fun (seed, length) ->
      Bor_workload.Text.generate ~seed ~length
      = Bor_workload.Text.generate ~seed ~length)

(* ---------------------------------------------------------------- Micro *)

let test_micro_checksum_matches_reference () =
  let chars = 20_000 in
  let compiled =
    Bor_workload.Micro.compile ~chars Bor_minic.Instrument.No_instrumentation
  in
  let m = Bor_sim.Machine.create compiled.program in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let addr =
    Option.get (Bor_isa.Program.find_symbol compiled.program "checksum")
  in
  check Alcotest.int "checksum"
    (Bor_workload.Micro.reference_checksum ~chars ())
    (Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) addr)

let test_micro_dist_counts_every_char () =
  let chars = 5_000 in
  let compiled =
    Bor_workload.Micro.compile ~chars Bor_minic.Instrument.No_instrumentation
  in
  let m = Bor_sim.Machine.create compiled.program in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let dist =
    Option.get (Bor_isa.Program.find_symbol compiled.program "dist")
  in
  let total = ref 0 in
  for c = 0 to 255 do
    total :=
      !total + Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) (dist + (4 * c))
  done;
  check Alcotest.int "distribution sums to corpus length" chars !total

let test_micro_instrumented_checksum_unchanged () =
  let chars = 8_000 in
  List.iter
    (fun fw ->
      let compiled = Bor_workload.Micro.compile ~chars fw in
      let m = Bor_sim.Machine.create compiled.program in
      (match Bor_sim.Machine.run m with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let addr =
        Option.get (Bor_isa.Program.find_symbol compiled.program "checksum")
      in
      check Alcotest.int "checksum invariant"
        (Bor_workload.Micro.reference_checksum ~chars ())
        (Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) addr))
    [
      Bor_minic.Instrument.Full;
      Bor_minic.Instrument.(Sampled (Counter 64, Full_duplication));
      Bor_minic.Instrument.(
        Sampled (Brr (Bor_core.Freq.of_period 64), Full_duplication));
    ]

let test_micro_hand_asm_matches () =
  let chars = 12_000 in
  let p = Bor_workload.Micro.assemble_hand ~chars () in
  let m = Bor_sim.Machine.create p in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "hand-written checksum"
    (Bor_workload.Micro.reference_checksum ~chars ())
    (Bor_sim.Machine.reg m (Bor_isa.Reg.a 0))

let test_micro_hand_asm_is_leaner () =
  (* The hand-scheduled loop should execute fewer instructions per
     character than the compiled version (no redundant moves). *)
  let chars = 5_000 in
  let dynamic p =
    let m = Bor_sim.Machine.create p in
    match Bor_sim.Machine.run m with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  let hand = dynamic (Bor_workload.Micro.assemble_hand ~chars ()) in
  let compiled =
    dynamic
      (Bor_workload.Micro.compile ~chars
         Bor_minic.Instrument.No_instrumentation)
        .program
  in
  check Alcotest.bool
    (Printf.sprintf "hand %d <= compiled %d" hand compiled)
    true (hand <= compiled)

(* ----------------------------------------------------------------- Apps *)

let test_apps_run_and_are_call_heavy () =
  List.iter
    (fun name ->
      let compiled =
        Bor_workload.Apps.compile name Bor_minic.Instrument.Full
      in
      let m = Bor_sim.Machine.create compiled.program in
      let visits = ref 0 in
      Bor_sim.Machine.on_site m (fun _ -> incr visits);
      (match Bor_sim.Machine.run ~max_steps:60_000_000 m with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      check Alcotest.bool (name ^ " has many method sites") true
        (!visits > 5_000);
      (* The instrumentation's own counts must equal the ground truth
         under full instrumentation. *)
      let prof =
        List.fold_left
          (fun a (_, c) -> a + c)
          0
          (Bor_minic.Driver.read_profile compiled m)
      in
      check Alcotest.int (name ^ " profile total") !visits prof)
    Bor_workload.Apps.all_names

let () =
  Alcotest.run "bor_workload"
    [
      ( "dacapo",
        [
          Alcotest.test_case "catalogue" `Quick test_catalogue;
          Alcotest.test_case "exact event counts" `Quick test_event_count_exact;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "seed variation" `Quick
            test_with_seed_changes_stream;
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "jython resonance (Fig 9)" `Slow
            test_jython_resonance;
          Alcotest.test_case "pmd resonance at 2^13 (Fig 10)" `Slow
            test_pmd_resonates_only_at_8192;
        ] );
      ( "text",
        [
          Alcotest.test_case "length and charset" `Quick
            test_text_length_and_charset;
          Alcotest.test_case "class mix" `Quick test_text_class_mix;
          qtest prop_text_deterministic;
        ] );
      ( "micro",
        [
          Alcotest.test_case "checksum matches reference" `Quick
            test_micro_checksum_matches_reference;
          Alcotest.test_case "distribution is complete" `Quick
            test_micro_dist_counts_every_char;
          Alcotest.test_case "instrumentation preserves checksum" `Quick
            test_micro_instrumented_checksum_unchanged;
          Alcotest.test_case "hand-scheduled asm matches" `Quick
            test_micro_hand_asm_matches;
          Alcotest.test_case "hand asm is leaner" `Quick
            test_micro_hand_asm_is_leaner;
        ] );
      ( "apps",
        [
          Alcotest.test_case "all five run, call-heavy, exact profiles"
            `Slow test_apps_run_and_are_call_heavy;
        ] );
    ]
