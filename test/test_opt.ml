(* Tests for Bor_opt, the stochastic superoptimizer (docs/OPT.md):
   Metropolis acceptance-math hand vectors (including the exact
   PRNG-draw discipline), cost-function units (mismatch weighting and
   the cycle tie-break between equivalent candidates), isolation of
   the reused scratch memories (sequentially and across threads),
   move-based mutator well-formedness (terminating skeleton, write-pool
   discipline, insert/delete length bounds), end-to-end determinism
   (same seed -> identical best program, counters, trajectory and
   telemetry JSON; domain count changes wall-clock only; frozen
   results from before the candidate memo; memo hits independent of
   the domain count and of earlier searches), and the known-rewrite
   regression corpus (test/opt_corpus), every file of which a
   fixed-budget seeded search must rediscover. *)

module Prng = Bor_util.Prng
module Instr = Bor_isa.Instr
module Reg = Bor_isa.Reg
module Program = Bor_isa.Program
module Asm = Bor_isa.Asm
module Machine = Bor_sim.Machine
module Gen = Bor_gen.Gen
module Corpus = Bor_gen.Corpus
module Cost = Bor_opt.Cost
module Search = Bor_opt.Search
module Telemetry = Bor_telemetry.Telemetry
module Json = Bor_telemetry.Json

let check = Alcotest.check

(* ------------------------------------------------- acceptance math *)

(* Downhill and equal-cost moves are accepted without consuming any
   randomness — pinned by comparing the PRNG stream before and after. *)
let test_accept_downhill_consumes_nothing () =
  let rng = Prng.create ~seed:42 in
  let shadow = Prng.copy rng in
  check Alcotest.bool "downhill accepted" true
    (Cost.accept rng ~temperature:50. ~current:100 ~proposed:90);
  check Alcotest.bool "equal accepted" true
    (Cost.accept rng ~temperature:50. ~current:100 ~proposed:100);
  check Alcotest.bool "zero-temperature downhill accepted" true
    (Cost.accept rng ~temperature:0. ~current:100 ~proposed:1);
  check Alcotest.int "no draws consumed" (Prng.next shadow) (Prng.next rng)

let test_accept_zero_temperature_rejects_uphill () =
  let rng = Prng.create ~seed:42 in
  let shadow = Prng.copy rng in
  for delta = 1 to 10 do
    check Alcotest.bool "uphill rejected at T=0" false
      (Cost.accept rng ~temperature:0. ~current:100 ~proposed:(100 + delta))
  done;
  check Alcotest.int "no draws consumed" (Prng.next shadow) (Prng.next rng)

(* Extreme temperatures pin the Metropolis exponential itself:
   exp(-1/1e9) ~ 1 accepts any draw, exp(-10000/1) ~ 0 rejects any. *)
let test_accept_extreme_temperatures () =
  let rng = Prng.create ~seed:7 in
  check Alcotest.bool "tiny uphill at huge T accepted" true
    (Cost.accept rng ~temperature:1e9 ~current:100 ~proposed:101);
  check Alcotest.bool "huge uphill at tiny T rejected" false
    (Cost.accept rng ~temperature:1. ~current:100 ~proposed:10100)

(* Exact accept/reject sequence: a shadow PRNG replays the documented
   decision procedure step for step; any divergence in either the
   decisions or the number of floats drawn fails. *)
let test_accept_hand_sequence () =
  let rng = Prng.create ~seed:20260809 in
  let shadow = Prng.create ~seed:20260809 in
  let cases =
    [
      (100, 90, 50.);
      (100, 110, 50.);
      (110, 115, 50.);
      (115, 115, 50.);
      (115, 400, 50.);
      (115, 120, 0.);
      (120, 118, 0.);
      (118, 130, 25.);
      (130, 131, 1000.);
      (131, 200, 10.);
    ]
  in
  List.iteri
    (fun i (current, proposed, temperature) ->
      let expected =
        if proposed <= current then true
        else if temperature <= 0. then false
        else
          Prng.float shadow
          < exp (-.float_of_int (proposed - current) /. temperature)
      in
      let got = Cost.accept rng ~temperature ~current ~proposed in
      check Alcotest.bool (Printf.sprintf "decision %d" i) expected got)
    cases;
  check Alcotest.int "streams in lockstep" (Prng.next shadow) (Prng.next rng)

(* ------------------------------------------------------- cost units *)

let asm src = Asm.assemble_exn src

let target_src =
  "main:\n\
  \  li s7, 64\n\
   loop:\n\
  \  addi a0, a0, 1\n\
  \  nop\n\
  \  nop\n\
  \  addi s7, s7, -1\n\
  \  bne s7, zero, loop\n\
  \  halt\n"

let one_nop_src =
  "main:\n\
  \  li s7, 64\n\
   loop:\n\
  \  addi a0, a0, 1\n\
  \  nop\n\
  \  addi s7, s7, -1\n\
  \  bne s7, zero, loop\n\
  \  halt\n"

let no_nop_src =
  "main:\n\
  \  li s7, 64\n\
   loop:\n\
  \  addi a0, a0, 1\n\
  \  addi s7, s7, -1\n\
  \  bne s7, zero, loop\n\
  \  halt\n"

(* One register's final value wrong (a0 steps by 2, not 1). *)
let wrong_a0_src =
  "main:\n\
  \  li s7, 64\n\
   loop:\n\
  \  addi a0, a0, 2\n\
  \  nop\n\
  \  nop\n\
  \  addi s7, s7, -1\n\
  \  bne s7, zero, loop\n\
  \  halt\n"

(* Two registers' final values wrong. *)
let wrong_two_src =
  "main:\n\
  \  li s7, 64\n\
   loop:\n\
  \  addi a0, a0, 2\n\
  \  addi a1, a1, 9\n\
  \  nop\n\
  \  addi s7, s7, -1\n\
  \  bne s7, zero, loop\n\
  \  halt\n"

let evaluator ?(src = target_src) () =
  match Cost.create (asm src) with
  | Ok e -> e
  | Error e -> Alcotest.failf "evaluator: %s" e

let test_cost_target_is_its_own_cycles () =
  let ev = evaluator () in
  let e = Cost.evaluate ev (asm target_src) in
  check Alcotest.int "no mismatches" 0 e.Cost.ev_mismatches;
  check Alcotest.int "cost = oracle cycles" (Cost.target_cycles ev)
    e.Cost.ev_cost;
  check Alcotest.bool "oracle paid" true e.Cost.ev_oracle

(* Mismatch weighting: each wrong final register is one unit per test
   vector, at weight 1000 — always dominating the cycles term. *)
let test_cost_mismatch_weighting () =
  let ev = evaluator () in
  let k = Cost.vector_count ev in
  let one = Cost.evaluate ev (asm wrong_a0_src) in
  let two = Cost.evaluate ev (asm wrong_two_src) in
  check Alcotest.int "one wrong register = one unit per vector" k
    one.Cost.ev_mismatches;
  check Alcotest.int "two wrong registers = two units per vector" (2 * k)
    two.Cost.ev_mismatches;
  check Alcotest.bool "mismatch term dominates"
    true
    (one.Cost.ev_cost >= (1000 * k) + one.Cost.ev_cycles
    && one.Cost.ev_cost > Cost.target_cycles ev);
  check Alcotest.bool "more mismatches cost more" true
    (two.Cost.ev_cost > one.Cost.ev_cost);
  check Alcotest.bool "no oracle run for filtered candidates" false
    one.Cost.ev_oracle

(* Cycle tie-break: equivalent candidates (zero mismatches) are ranked
   purely by their oracle cycles. *)
let test_cost_cycle_tiebreak () =
  let ev = evaluator () in
  let e2 = Cost.evaluate ev (asm target_src) in
  let e1 = Cost.evaluate ev (asm one_nop_src) in
  let e0 = Cost.evaluate ev (asm no_nop_src) in
  check Alcotest.int "one-nop variant equivalent" 0 e1.Cost.ev_mismatches;
  check Alcotest.int "no-nop variant equivalent" 0 e0.Cost.ev_mismatches;
  check Alcotest.int "equivalent cost is pure cycles" e0.Cost.ev_cycles
    e0.Cost.ev_cost;
  check Alcotest.bool "fewer cycles win the tie" true
    (e0.Cost.ev_cost < e2.Cost.ev_cost && e1.Cost.ev_cost <= e2.Cost.ev_cost)

let test_cost_evaluate_is_pure () =
  let ev = evaluator () in
  let a = Cost.evaluate ev (asm one_nop_src) in
  let b = Cost.evaluate ev (asm one_nop_src) in
  check Alcotest.bool "same eval twice" true (a = b)

(* Region-of-interest markers gate the pipeline's cycles stat, so a
   cost oracle reading it naively can be gamed by shrinking the
   measured region instead of the program — the search's first
   "rewrite" on a minic target swapped the ROI begin/end markers for a
   reported cost of 1 cycle. The oracle must charge whole-program
   cycles regardless of marker placement. *)
let marker_body mid =
  Printf.sprintf
    "main:\n\
    \  %s\n\
    \  li s7, 48\n\
     loop:\n\
    \  addi a0, a0, 1\n\
    \  addi s7, s7, -1\n\
    \  bne s7, zero, loop\n\
    \  %s\n\
    \  halt\n"
    (fst mid) (snd mid)

let test_cost_immune_to_roi_markers () =
  let plain = asm (marker_body ("nop", "nop")) in
  let roi = asm (marker_body ("marker 1", "marker 2")) in
  let inverted = asm (marker_body ("marker 2", "marker 1")) in
  let cycles prog =
    match Cost.create prog with
    | Ok ev -> Cost.target_cycles ev
    | Error e -> Alcotest.failf "marker target: %s" e
  in
  let base = cycles plain in
  check Alcotest.bool "whole-program cycles are loop-sized" true (base > 100);
  check Alcotest.int "ROI markers charge the same" base (cycles roi);
  check Alcotest.int "inverted markers charge the same" base (cycles inverted)

(* ------------------------------------------------ scratch isolation *)

(* Filter and oracle runs reuse scrubbed scratch memories. The target
   loads from a stack slot and from past its data segment, both zero
   on a clean machine, so leftovers from an earlier candidate would
   change its final [a0]. *)
let reader_src body =
  Printf.sprintf
    "main:\n\
    \  lw a1, -1000(sp)\n\
    \  lw a2, 64(gp)\n\
    \  li s7, 64\n\
     loop:\n\
    \  addi a0, a0, 1\n\
     %s\
    \  addi s7, s7, -1\n\
    \  bne s7, zero, loop\n\
    \  add a0, a0, a1\n\
    \  add a0, a0, a2\n\
    \  halt\n\
    \  .data\n\
    \  .word 5\n"
    body

let reader_target = reader_src "  nop\n"

(* Equivalent to the target, so it reaches the oracle, but leaves a0
   in the very slots the target loads from. *)
let scribbler = reader_src "  sw a0, -1000(sp)\n  sw a0, 64(gp)\n"

(* Pushes onto the stack until the step budget runs out. *)
let spinner =
  "main:\n\
  \  li t0, 1\n\
   spin:\n\
  \  addi sp, sp, -4\n\
  \  sw t0, 0(sp)\n\
  \  j spin\n"

(* Dirties the stack and data pages, then faults on a misaligned load. *)
let faulter =
  "main:\n\
  \  li t0, -1\n\
  \  sw t0, -1000(sp)\n\
  \  sw t0, 0(gp)\n\
  \  sw t0, 64(gp)\n\
  \  lw a0, 2(gp)\n\
  \  halt\n\
  \  .data\n\
  \  .word 5\n"

let test_scratch_isolation () =
  let target = asm reader_target in
  let ev = evaluator ~src:reader_target () in
  let cap = 64 * Cost.vector_count ev in
  let s = Cost.evaluate ev (asm scribbler) in
  check Alcotest.bool "scribbler is equivalent and paid the oracle" true
    (s.Cost.ev_mismatches = 0 && s.Cost.ev_oracle);
  check Alcotest.int "spinner charges the full cap" cap
    (Cost.evaluate ev (asm spinner)).Cost.ev_mismatches;
  check Alcotest.int "faulter charges the full cap" cap
    (Cost.evaluate ev (asm faulter)).Cost.ev_mismatches;
  let after = Cost.evaluate ev target in
  let fresh = Cost.evaluate (evaluator ~src:reader_target ()) target in
  check Alcotest.int "target still equivalent" 0 after.Cost.ev_mismatches;
  check Alcotest.bool "same eval as a fresh evaluator" true (after = fresh)

(* A long loop, then the target's two loads: runs long enough to be
   preempted between its [Machine.create] and the loads. Never
   equivalent (a0 counts to 40000), so it costs no oracle run. *)
let slow_src body =
  Printf.sprintf
    "main:\n\
    \  li s7, 40000\n\
     loop:\n\
    \  addi a0, a0, 1\n\
     %s\
    \  addi s7, s7, -1\n\
    \  bne s7, zero, loop\n\
    \  lw a1, -1000(sp)\n\
    \  lw a2, 64(gp)\n\
    \  halt\n\
    \  .data\n\
    \  .word 5\n"
    body

(* Each caller owns its scratch memory: three systhreads of one domain
   evaluating the same candidates in different orders get the records
   a sequential run does. A memory shared between threads would let a
   slow scribbler's stores reach a preempted slow reader's loads. *)
let test_scratch_threads () =
  let ev = evaluator ~src:reader_target () in
  let progs =
    Array.map asm
      [|
        reader_target;
        scribbler;
        slow_src "  nop\n";
        slow_src "  sw a0, -1000(sp)\n  sw a0, 64(gp)\n";
        faulter;
      |]
  in
  let n = Array.length progs in
  let sequential = Array.map (Cost.evaluate ev) progs in
  (* Thread [k] evaluates every candidate three times, starting at a
     different one each round; results are checked after the join. *)
  let worker k =
    List.init (3 * n) (fun j ->
        let i = (j + k + (j / n)) mod n in
        (i, Cost.evaluate ev progs.(i)))
  in
  let results = Array.make 3 [] in
  List.init 3 (fun k -> Thread.create (fun () -> results.(k) <- worker k) ())
  |> List.iter Thread.join;
  Array.iteri
    (fun k r ->
      check Alcotest.int (Printf.sprintf "thread %d finished" k) (3 * n)
        (List.length r);
      List.iter
        (fun (i, e) ->
          check Alcotest.bool
            (Printf.sprintf "thread %d candidate %d" k i)
            true (e = sequential.(i)))
        r)
    results

(* The retired pipeline [test_uarch]'s "create ~reuse = fresh create"
   hands on, verbatim: it stores into its own text and above its data
   segment, trains the predictor, fills the caches, fills the ROB with
   missing loads and halts 40 calls deep, past the 32-entry RAS. *)
let dirtying_src =
  {|
main:   la   s2, main
        la   s3, buf
        li   t4, 65536
        add  s3, s3, t4
        li   s1, 4096
loop:   sw   s1, 0(s2)
        slli t1, s1, 2
        add  t2, s3, t1
        sw   s1, 0(t2)
        andi t3, s1, 5
        bne  t3, zero, skip
        jal  leaf
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        add  s6, s3, t4
        add  s6, s6, t4
        li   s1, 200
fill:   lw   t0, 0(s6)
        addi s6, s6, 64
        addi s1, s1, -1
        bne  s1, zero, fill
        li   s7, 40
deep:   addi s7, s7, -1
        beq  s7, zero, done
        jal  deep
done:   halt
leaf:   addi t5, t5, 1
        ret
        .data
buf:    .space 64
|}

(* Every filter and oracle run borrows a retired pipeline from the
   scratch pool, so an evaluation must not depend on what ran on it
   before: the same candidates give the same records on an empty pool
   (fresh buffers) and on a pool holding only a pipeline that ran the
   dirtying program, whose buffers they then run on. *)
let test_scratch_history_independent () =
  let module Scratch = Bor_exec.Scratch in
  let module Pipeline = Bor_uarch.Pipeline in
  let rec drain acc =
    match Scratch.take () with Some p -> drain (p :: acc) | None -> acc
  in
  let pooled = drain [] in
  let cases =
    List.map
      (fun (target, srcs) -> (evaluator ~src:target (), List.map asm srcs))
      [
        ( target_src,
          [ target_src; one_nop_src; no_nop_src; wrong_a0_src; wrong_two_src ] );
        (reader_target, [ reader_target; scribbler; spinner; faulter ]);
      ]
  in
  let evaluate_all () =
    List.concat_map (fun (ev, progs) -> List.map (Cost.evaluate ev) progs) cases
  in
  let fresh = evaluate_all () in
  ignore (drain []);
  let dirty = Pipeline.create (asm dirtying_src) in
  (match Pipeline.run dirty with
  | Ok st -> check Alcotest.bool "dirtied" true (st.Pipeline.cycles_rob_full > 0)
  | Error e -> Alcotest.fail e);
  let dirty_mem = Machine.memory (Pipeline.oracle dirty) in
  Scratch.give dirty;
  let after = evaluate_all () in
  List.iteri
    (fun i (a, b) ->
      check Alcotest.bool (Printf.sprintf "candidate %d" i) true (a = b))
    (List.combine fresh after);
  (match Scratch.take () with
  | Some p ->
    check Alcotest.bool "ran on the dirtied buffers" true
      (Machine.memory (Pipeline.oracle p) == dirty_mem);
    Scratch.give p
  | None -> Alcotest.fail "scratch pool empty");
  List.iter Scratch.give pooled

(* --------------------------------------------------- mutator moves *)

let halt_index text =
  let h = ref (-1) in
  Array.iteri (fun i x -> if !h < 0 && x = Instr.Halt then h := i) text;
  !h

(* The generated-skeleton invariants of gen.mli: trip-count load at
   slot 0, decrement at h-2, backward backedge at h-1, halt at h, and
   nothing else ever writes the loop counter. *)
let check_skeleton name (p : Program.t) =
  let text = p.Program.text in
  let h = halt_index text in
  if h < 4 then Alcotest.failf "%s: no skeleton (halt at %d)" name h;
  (match text.(0) with
  | Instr.Alui (Instr.Add, rd, rz, _) when rd = Gen.counter && rz = Reg.zero ->
    ()
  | i -> Alcotest.failf "%s: slot 0 is %s" name (Instr.to_string i));
  check Alcotest.bool (name ^ ": decrement in place") true
    (text.(h - 2) = Instr.Alui (Instr.Add, Gen.counter, Gen.counter, -1));
  (match text.(h - 1) with
  | Instr.Branch (Instr.Ne, a, b, off)
    when a = Gen.counter && b = Reg.zero && off < 0 ->
    ()
  | i -> Alcotest.failf "%s: backedge is %s" name (Instr.to_string i));
  Array.iteri
    (fun i x ->
      if i <> 0 && i <> h - 2 && Instr.dest x = Some Gen.counter then
        Alcotest.failf "%s: slot %d writes the loop counter (%s)" name i
          (Instr.to_string x))
    text

(* Every move kind, applied to generated-skeleton programs: the result
   must keep the terminating skeleton, express all branch targets in
   labels (Corpus.to_asm raises on out-of-range targets), and actually
   halt on the functional simulator. *)
let test_moves_preserve_well_formedness () =
  let rng = Prng.create ~seed:90125 in
  let applied = Array.map (fun _ -> 0) Gen.all_moves in
  for case = 1 to 60 do
    let p = Gen.gen_program (Prng.create ~seed:case) in
    Array.iteri
      (fun mi m ->
        match Gen.apply_move rng m p with
        | None -> ()
        | Some p' ->
          applied.(mi) <- applied.(mi) + 1;
          let name =
            Printf.sprintf "case %d %s" case (Gen.move_name m)
          in
          check_skeleton name p';
          (try ignore (Corpus.to_asm p')
           with Invalid_argument e ->
             Alcotest.failf "%s: unprintable branch target: %s" name e);
          let m' = Machine.create p' in
          (match Machine.run ~max_steps:500_000 m' with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: mutant does not halt: %s" name e))
      Gen.all_moves
  done;
  Array.iteri
    (fun mi n ->
      if n = 0 then
        Alcotest.failf "move %s never applied"
          (Gen.move_name Gen.all_moves.(mi)))
    applied

(* Insert/delete keep lengths inside [original - deletes, original +
   inserts] and below the hard text cap; a round trip of n inserts
   followed by n deletes restores the original length. *)
let test_insert_delete_length_bounds () =
  let rng = Prng.create ~seed:777 in
  for case = 1 to 20 do
    let p0 = Gen.gen_program (Prng.create ~seed:(1000 + case)) in
    let n0 = Array.length p0.Program.text in
    let p = ref p0 and inserted = ref 0 in
    for _ = 1 to 40 do
      match Gen.apply_move rng Gen.Insert !p with
      | Some p' ->
        incr inserted;
        p := p'
      | None ->
        check Alcotest.bool "insert only refuses at the cap" true
          (Array.length !p.Program.text >= Gen.max_text_len)
    done;
    check Alcotest.int
      (Printf.sprintf "case %d: inserts grow one at a time" case)
      (n0 + !inserted)
      (Array.length !p.Program.text);
    check Alcotest.bool "never above the cap" true
      (Array.length !p.Program.text <= Gen.max_text_len);
    let deleted = ref 0 in
    while !deleted < !inserted do
      match Gen.apply_move rng Gen.Delete !p with
      | Some p' ->
        incr deleted;
        p := p'
      | None -> Alcotest.failf "case %d: delete refused early" case
    done;
    check Alcotest.int
      (Printf.sprintf "case %d: round trip restores length" case)
      n0
      (Array.length !p.Program.text)
  done

(* Marker slots are measurement scaffolding: no move may replace,
   swap away or delete one, so the marker subsequence of the text is
   invariant under every move (inserts may shift where they sit). *)
let test_moves_never_touch_markers () =
  let p0 = asm (marker_body ("marker 1", "marker 2")) in
  let markers (p : Program.t) =
    Array.to_list p.Program.text
    |> List.filter_map (function Instr.Marker m -> Some m | _ -> None)
  in
  let expected = markers p0 in
  check Alcotest.bool "target has both markers" true (expected = [ 1; 2 ]);
  let rng = Prng.create ~seed:424242 in
  for _ = 1 to 400 do
    Array.iter
      (fun m ->
        match Gen.apply_move rng m p0 with
        | None -> ()
        | Some p' ->
          if markers p' <> expected then
            Alcotest.failf "move %s disturbed the ROI markers"
              (Gen.move_name m))
      Gen.all_moves
  done

(* pick_move respects zeroed rates. *)
let test_pick_move_rates () =
  let rng = Prng.create ~seed:5 in
  let only_delete =
    { Gen.replace = 0; swap = 0; insert = 0; delete = 1; change_imm = 0 }
  in
  for _ = 1 to 50 do
    check Alcotest.bool "only delete drawn" true
      (Gen.pick_move rng only_delete = Gen.Delete)
  done;
  let all_zero =
    { Gen.replace = 0; swap = 0; insert = 0; delete = 0; change_imm = 0 }
  in
  Alcotest.check_raises "all-zero rates rejected"
    (Invalid_argument "Gen.pick_move: rates sum to zero") (fun () ->
      ignore (Gen.pick_move rng all_zero))

(* ------------------------------------------------------ determinism *)

let test_params =
  {
    Search.default_params with
    Search.p_seed = 11;
    p_rounds = 3;
    p_iters = 120;
    p_chains = 2;
    p_domains = 1;
  }

let run_search ?(params = test_params) prog =
  match Search.run params prog with
  | Ok r -> r
  | Error e -> Alcotest.failf "search: %s" e

let fingerprint r =
  let open Search in
  ( Corpus.to_asm r.r_best,
    r.r_best_cost,
    r.r_target_cost,
    r.r_counters,
    r.r_trajectory,
    r.r_verified )

(* Same seed, same target -> identical best program, counters,
   trajectory and telemetry JSON. *)
let test_determinism_same_seed () =
  let target = asm target_src in
  Telemetry.set_enabled true;
  let snap () =
    let s = Json.to_string (Telemetry.to_json ()) in
    Telemetry.clear ();
    s
  in
  Telemetry.clear ();
  let a = run_search target in
  let ja = snap () in
  let b = run_search target in
  let jb = snap () in
  Telemetry.set_enabled false;
  check Alcotest.bool "identical results" true (fingerprint a = fingerprint b);
  check Alcotest.string "identical telemetry JSON" ja jb;
  check Alcotest.string "identical report JSON"
    (Json.to_string (Search.report_json a))
    (Json.to_string (Search.report_json b))

(* Domain count is parallelism only: the multi-domain search returns a
   byte-identical result to the single-domain one at the same seed, and
   leaves a byte-identical telemetry registry behind. *)
let test_determinism_across_domains () =
  let target = asm target_src in
  Telemetry.set_enabled true;
  let search domains =
    Telemetry.clear ();
    let r =
      run_search ~params:{ test_params with Search.p_domains = domains } target
    in
    let j = Json.to_string (Telemetry.to_json ()) in
    Telemetry.clear ();
    (r, j)
  in
  let a, ja = search 1 in
  let b, jb = search 3 in
  Telemetry.set_enabled false;
  check Alcotest.bool "domains=3 = domains=1" true
    (fingerprint a = fingerprint b);
  check Alcotest.string "telemetry JSON at domains=3 = domains=1" ja jb

(* Frozen results of [test_params] searches, taken before the candidate
   memo existed: a memo hit must reproduce exactly the evaluation it
   replaces, so every result and every pre-memo counter stays as it
   was, at any domain count. Counts are (proposals, inapplicable,
   acceptances, filter rejects, oracle evaluations). *)
let frozen_searches =
  [
    ( "target_src",
      (fun () -> asm target_src),
      "; bor fuzz reproducer\n.text\nmain:\n  addi s7, zero, 64\nL1:\n  \
       addi a0, a0, 1\n  addi s7, s7, -1\n  bne s7, zero, L1\n  halt\n",
      (238, 301, [ (1, 238); (2, 238); (3, 238) ], true),
      [ 498; 222; 63; 430; 68 ] );
    ( "double_mask",
      (fun () ->
        match Corpus.load_file "opt_corpus/double_mask.s" with
        | Ok p -> p
        | Error e -> Alcotest.failf "double_mask: %s" e),
      "; bor fuzz reproducer\n.text\nmain:\n  addi s7, zero, 48\nL1:\n  \
       andi a0, a0, 15\n  addi s7, s7, -1\n  bne s7, zero, L1\n  halt\n",
      (222, 306, [ (1, 222); (2, 222); (3, 222) ], true),
      [ 518; 202; 104; 410; 108 ] );
  ]

let test_frozen_searches () =
  List.iter
    (fun (name, target, best_asm, (best, target_cost, traj, verified), counts) ->
      let target = target () in
      List.iter
        (fun domains ->
          let r =
            run_search ~params:{ test_params with Search.p_domains = domains }
              target
          in
          let what s = Printf.sprintf "%s at %d domain(s): %s" name domains s in
          let open Search in
          let k = r.r_counters in
          check Alcotest.string (what "best program") best_asm
            (Corpus.to_asm r.r_best);
          check Alcotest.int (what "best cost") best r.r_best_cost;
          check Alcotest.int (what "target cost") target_cost r.r_target_cost;
          check
            Alcotest.(list (pair int int))
            (what "trajectory") traj r.r_trajectory;
          check Alcotest.bool (what "verified") verified r.r_verified;
          check
            Alcotest.(list int)
            (what "counters") counts
            [
              k.n_proposals;
              k.n_inapplicable;
              k.n_acceptances;
              k.n_filter_rejects;
              k.n_oracle_evals;
            ])
        [ 1; 2 ])
    frozen_searches

(* The candidate memo answers a repeated candidate without simulating
   it. Its hits depend on the chains' seeds alone: the same at every
   domain count, the same for a second search run right after the
   first (no table outlives its search), and never more than the
   proposals. The report and the registry carry the same count. *)
let test_memo_hits () =
  let target = asm target_src in
  let search domains =
    run_search ~params:{ test_params with Search.p_domains = domains } target
  in
  Telemetry.set_enabled true;
  Telemetry.clear ();
  let r = search 1 in
  let registered = Telemetry.find_counter "opt.memo_hits" in
  Telemetry.clear ();
  Telemetry.set_enabled false;
  let k = r.Search.r_counters in
  let hits = k.Search.n_memo_hits in
  check Alcotest.bool "the memo answered some proposals" true (hits > 0);
  check Alcotest.bool "memo hits <= proposals" true
    (hits <= k.Search.n_proposals);
  check Alcotest.(option int) "opt.memo_hits" (Some hits) registered;
  (match Search.report_json r with
  | Json.Obj fields -> (
    match List.assoc_opt "counters" fields with
    | Some (Json.Obj c) ->
      check Alcotest.bool "report counters.memo_hits" true
        (List.assoc_opt "memo_hits" c = Some (Json.Int hits))
    | _ -> Alcotest.fail "report has no counters object")
  | _ -> Alcotest.fail "report is not an object");
  List.iter
    (fun domains ->
      check Alcotest.int
        (Printf.sprintf "memo hits at %d domains" domains)
        hits
        (search domains).Search.r_counters.Search.n_memo_hits)
    [ 2; 3; 1 ]

(* ------------------------------------------------ regression corpus *)

(* Every committed known-rewrite target must be rediscovered by a
   fixed-budget seeded search, and the reported rewrite must have
   passed fresh-vector equivalence plus the ten-way differential
   (Search sets r_verified only then). *)
let test_corpus_rediscovery () =
  let files = Corpus.files ~dir:"opt_corpus" in
  check Alcotest.bool "corpus present" true (List.length files >= 3);
  List.iter
    (fun file ->
      match Corpus.load_file file with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok target ->
        let params =
          { test_params with Search.p_rounds = 4; p_iters = 150 }
        in
        let r = run_search ~params target in
        let open Search in
        if not (r.r_improved && r.r_verified) then
          Alcotest.failf
            "%s: known rewrite not rediscovered (cost %d -> %d, improved %b, \
             verified %b, note %s)"
            file r.r_target_cost r.r_best_cost r.r_improved r.r_verified
            r.r_note;
        check Alcotest.bool
          (Filename.basename file ^ ": strictly cheaper")
          true
          (r.r_best_cost < r.r_target_cost))
    files

let () =
  Alcotest.run "opt"
    [
      ( "accept",
        [
          Alcotest.test_case "downhill consumes no randomness" `Quick
            test_accept_downhill_consumes_nothing;
          Alcotest.test_case "zero temperature rejects uphill" `Quick
            test_accept_zero_temperature_rejects_uphill;
          Alcotest.test_case "extreme temperatures" `Quick
            test_accept_extreme_temperatures;
          Alcotest.test_case "hand accept/reject sequence" `Quick
            test_accept_hand_sequence;
        ] );
      ( "cost",
        [
          Alcotest.test_case "target costs its own cycles" `Quick
            test_cost_target_is_its_own_cycles;
          Alcotest.test_case "mismatch weighting" `Quick
            test_cost_mismatch_weighting;
          Alcotest.test_case "cycle tie-break" `Quick test_cost_cycle_tiebreak;
          Alcotest.test_case "evaluate is pure" `Quick test_cost_evaluate_is_pure;
          Alcotest.test_case "immune to ROI markers" `Quick
            test_cost_immune_to_roi_markers;
          Alcotest.test_case "scratch memory isolation" `Quick
            test_scratch_isolation;
          Alcotest.test_case "scratch memory per thread" `Quick
            test_scratch_threads;
          Alcotest.test_case "evaluation is independent of scratch history"
            `Quick test_scratch_history_independent;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "moves preserve well-formedness" `Quick
            test_moves_preserve_well_formedness;
          Alcotest.test_case "insert/delete length bounds" `Quick
            test_insert_delete_length_bounds;
          Alcotest.test_case "moves never touch markers" `Quick
            test_moves_never_touch_markers;
          Alcotest.test_case "pick_move rates" `Quick test_pick_move_rates;
        ] );
      ( "search",
        [
          Alcotest.test_case "same seed, same everything" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "domain count changes wall-clock only" `Quick
            test_determinism_across_domains;
          Alcotest.test_case "frozen pre-memo results" `Quick
            test_frozen_searches;
          Alcotest.test_case "memo hits are per search and domain-free"
            `Quick test_memo_hits;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "known rewrites rediscovered" `Quick
            test_corpus_rediscovery;
        ] );
    ]
