(* Corpus replay + corpus round-trip.

   Every committed reproducer in test/corpus/ is reassembled and run
   through the full ten-way differential property with the sanitizer
   enabled — once a fuzzer-found bug is fixed, its reproducer stays
   here as a regression test forever. The group passes trivially while
   that corpus is empty, so the superoptimizer's seed programs in
   test/opt_corpus/ replay through the same differential as well.

   The round-trip group proves the corpus format is faithful: render a
   generated program with [Corpus.to_asm], reassemble it, and demand
   the identical instruction array, data image and entry point. *)

module Prng = Bor_util.Prng
module Instr = Bor_isa.Instr
module Program = Bor_isa.Program
module Gen = Bor_gen.Gen
module Diff = Bor_gen.Diff
module Corpus = Bor_gen.Corpus

let replay file () =
  match Corpus.load_file file with
  | Error e -> Alcotest.failf "%s: %s" file e
  | Ok prog -> (
    match Diff.run prog with
    | Diff.Pass -> ()
    | Diff.Budget e -> Alcotest.failf "%s: reference budget: %s" file e
    | Diff.Fail { stage; reason } ->
      Alcotest.failf "%s: %s: %s" file stage reason)

let roundtrip seed () =
  let prog = Gen.gen_program (Prng.create ~seed) in
  let asm = Corpus.to_asm ~seed prog in
  match Bor_isa.Asm.assemble asm with
  | Error e ->
    Alcotest.failf "reassembly failed: %a@\n%s" Bor_isa.Asm.pp_error e asm
  | Ok prog' ->
    let t = prog.Program.text and t' = prog'.Program.text in
    Alcotest.(check int) "instruction count" (Array.length t)
      (Array.length t');
    Array.iteri
      (fun i ins ->
        if ins <> t'.(i) then
          Alcotest.failf "instruction %d: %s <> %s" i (Instr.to_string ins)
            (Instr.to_string t'.(i)))
      t;
    Alcotest.(check bytes) "data image" prog.Program.data prog'.Program.data;
    Alcotest.(check int) "entry" prog.Program.entry prog'.Program.entry

let () =
  Bor_check.Check.set_enabled true;
  let replays files =
    List.map
      (fun f -> Alcotest.test_case (Filename.basename f) `Quick (replay f))
      files
  in
  let corpus =
    match Corpus.files ~dir:"corpus" with
    | [] ->
      [ Alcotest.test_case "empty corpus" `Quick (fun () -> ()) ]
    | files -> replays files
  in
  let roundtrips =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick
          (roundtrip seed))
      [ 1; 7; 42; 1234; 99991 ]
  in
  Alcotest.run "corpus"
    [
      ("replay", corpus);
      ("opt corpus replay", replays (Corpus.files ~dir:"opt_corpus"));
      ("roundtrip", roundtrips);
    ]
