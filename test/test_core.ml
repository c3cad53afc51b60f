(* Tests for Bor_core: the frequency encoding, the decision engine and
   the hardware cost model. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- Freq *)

let test_field_roundtrip () =
  List.iter
    (fun f ->
      check Alcotest.int "roundtrip" f
        (Bor_core.Freq.to_field (Bor_core.Freq.of_field f)))
    (List.init 16 Fun.id);
  Alcotest.check_raises "16 rejected"
    (Invalid_argument "Freq.of_field: need 0..15") (fun () ->
      ignore (Bor_core.Freq.of_field 16))

let test_period_mapping () =
  (* (1/2)^(f+1): field 0 is 50%, field 9 is 1/1024, field 15 is 1/65536
     (the paper's 0.0015%). *)
  check Alcotest.int "field 0 = period 2" 2
    (Bor_core.Freq.period (Bor_core.Freq.of_field 0));
  check Alcotest.int "period 1024 = field 9" 9
    (Bor_core.Freq.to_field (Bor_core.Freq.of_period 1024));
  check Alcotest.int "field 15 = period 65536" 65536
    (Bor_core.Freq.period (Bor_core.Freq.of_field 15));
  check (Alcotest.float 1e-12) "probability of field 0" 0.5
    (Bor_core.Freq.probability (Bor_core.Freq.of_field 0));
  check (Alcotest.float 1e-9) "probability of field 15" (0.5 ** 16.)
    (Bor_core.Freq.probability (Bor_core.Freq.of_field 15))

let test_of_period_rejects () =
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "period %d" n)
        (Invalid_argument "Freq.of_period: need a power of two in [2, 65536]")
        (fun () -> ignore (Bor_core.Freq.of_period n)))
    [ 0; 1; 3; 100; 131072 ]

let test_all_frequencies () =
  let periods =
    List.init 16 (fun f -> Bor_core.Freq.period (Bor_core.Freq.of_field f))
  in
  check Alcotest.int "sixteen distinct values" 16
    (List.length (List.sort_uniq compare periods));
  check Alcotest.string "pp" "1/1024"
    (Format.asprintf "%a" Bor_core.Freq.pp (Bor_core.Freq.of_period 1024))

let prop_and_width =
  QCheck.Test.make ~name:"and_width = field + 1" (QCheck.int_range 0 15)
    (fun f ->
      Bor_core.Freq.and_width (Bor_core.Freq.of_field f) = f + 1)

(* --------------------------------------------------------------- Engine *)

let test_engine_rate_convergence () =
  (* "asymptotically the branch bias will approach the specified
     frequency" (§3.2) -- binomial 5-sigma bound per frequency. *)
  let e = Bor_core.Engine.create ~seed:0x1F2F3 () in
  List.iter
    (fun field ->
      let f = Bor_core.Freq.of_field field in
      let p = Bor_core.Freq.probability f in
      let n = 400_000 in
      let takes = ref 0 in
      for _ = 1 to n do
        if Bor_core.Engine.decide e f then incr takes
      done;
      let expected = p *. Float.of_int n in
      let sigma = sqrt (Float.of_int n *. p *. (1. -. p)) in
      let dev = Float.abs (Float.of_int !takes -. expected) in
      check Alcotest.bool
        (Printf.sprintf "field %d within 5 sigma" field)
        true
        (dev <= (5. *. sigma) +. 1.))
    [ 0; 1; 2; 3; 4; 6; 8; 10 ]

let test_engine_min_width () =
  Alcotest.check_raises "width 12 too narrow"
    (Invalid_argument "Engine.create: the 4-bit field needs at least 16 bits")
    (fun () -> ignore (Bor_core.Engine.create ~width:12 ()))

let test_engine_undo () =
  let e = Bor_core.Engine.create () in
  let f = Bor_core.Freq.of_field 3 in
  let before = Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr e) in
  let taken1, banked = Bor_core.Engine.decide_recorded e f in
  Bor_core.Engine.undo e ~shifted_out:banked;
  check Alcotest.int "state restored" before
    (Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr e));
  (* Replaying after the undo gives the same outcome: determinism. *)
  let taken2 = Bor_core.Engine.decide e f in
  check Alcotest.bool "same outcome on replay" taken1 taken2

let test_engine_would_take_pure () =
  let e = Bor_core.Engine.create () in
  let f = Bor_core.Freq.of_field 2 in
  let a = Bor_core.Engine.would_take e f in
  let b = Bor_core.Engine.would_take e f in
  check Alcotest.bool "no state change" a b;
  check Alcotest.bool "decide agrees with would_take" a
    (Bor_core.Engine.decide e f)

let prop_engine_seeds_differ =
  QCheck.Test.make ~name:"different seeds give different take patterns"
    ~count:20
    QCheck.(pair (int_range 1 10000) (int_range 10001 20000))
    (fun (s1, s2) ->
      let e1 = Bor_core.Engine.create ~seed:s1 () in
      let e2 = Bor_core.Engine.create ~seed:s2 () in
      let f = Bor_core.Freq.of_field 1 in
      let xs = List.init 64 (fun _ -> Bor_core.Engine.decide e1 f) in
      let ys = List.init 64 (fun _ -> Bor_core.Engine.decide e2 f) in
      xs <> ys)

(* --------------------------------------------------------------- Hwcost *)

let test_paper_claims () =
  check Alcotest.bool "both §3.3 headline claims hold" true
    (Bor_core.Hwcost.meets_paper_claims ())

let test_single_issue_budget () =
  let b = Bor_core.Hwcost.estimate Bor_core.Hwcost.single_issue in
  check Alcotest.int "20 bits of state" 20 b.state_bits;
  check Alcotest.bool "< 100 gates" true (b.gates_total < 100)

let test_four_wide_budget () =
  let b = Bor_core.Hwcost.estimate Bor_core.Hwcost.four_wide in
  check Alcotest.bool "<= 100 bits" true (b.state_bits <= 100);
  check Alcotest.bool "<= 400 gates" true (b.gates_total <= 400)

let test_shared_cheaper_state () =
  let repl = Bor_core.Hwcost.four_wide in
  let shared = { repl with Bor_core.Hwcost.sharing = Bor_core.Hwcost.Shared } in
  check Alcotest.bool "shared LFSR uses fewer state bits" true
    (Bor_core.Hwcost.state_bits shared < Bor_core.Hwcost.state_bits repl);
  check Alcotest.bool "shared LFSR uses fewer gates" true
    (Bor_core.Hwcost.gates shared < Bor_core.Hwcost.gates repl)

let test_deterministic_costs_more () =
  let base = Bor_core.Hwcost.single_issue in
  let det = { base with Bor_core.Hwcost.deterministic = true } in
  check Alcotest.bool "state grows by bank + counter" true
    (Bor_core.Hwcost.state_bits det
    > Bor_core.Hwcost.state_bits base);
  check Alcotest.bool "still cheap" true (Bor_core.Hwcost.gates det < 120)

let prop_gates_scale_linearly =
  QCheck.Test.make ~name:"replicated gates grow monotonically with width"
    (QCheck.int_range 1 7) (fun w ->
      let cfg n = { Bor_core.Hwcost.single_issue with decode_width = n } in
      Bor_core.Hwcost.gates (cfg (w + 1)) > Bor_core.Hwcost.gates (cfg w))

let () =
  Alcotest.run "bor_core"
    [
      ( "freq",
        [
          Alcotest.test_case "field roundtrip" `Quick test_field_roundtrip;
          Alcotest.test_case "period mapping" `Quick test_period_mapping;
          Alcotest.test_case "of_period rejects" `Quick test_of_period_rejects;
          Alcotest.test_case "all frequencies" `Quick test_all_frequencies;
          qtest prop_and_width;
        ] );
      ( "engine",
        [
          Alcotest.test_case "rate convergence (§3.2)" `Slow
            test_engine_rate_convergence;
          Alcotest.test_case "minimum width" `Quick test_engine_min_width;
          Alcotest.test_case "undo (§3.4 determinism)" `Quick test_engine_undo;
          Alcotest.test_case "would_take is pure" `Quick
            test_engine_would_take_pure;
          qtest prop_engine_seeds_differ;
        ] );
      ( "hwcost",
        [
          Alcotest.test_case "paper claims" `Quick test_paper_claims;
          Alcotest.test_case "single-issue budget" `Quick
            test_single_issue_budget;
          Alcotest.test_case "4-wide budget" `Quick test_four_wide_budget;
          Alcotest.test_case "shared vs replicated" `Quick
            test_shared_cheaper_state;
          Alcotest.test_case "deterministic surcharge" `Quick
            test_deterministic_costs_more;
          qtest prop_gates_scale_linearly;
        ] );
    ]
