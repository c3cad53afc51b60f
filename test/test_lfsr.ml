(* Tests for Bor_lfsr: the Figure 6 sequence, maximality, bit selection,
   the Figure 7 probability tree and statistical quality. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- Taps *)

let test_taps_validation () =
  Alcotest.check_raises "first exponent must be width"
    (Invalid_argument "Taps.make: first exponent must equal the width")
    (fun () -> ignore (Bor_lfsr.Taps.make ~width:8 [ 7; 3 ]));
  Alcotest.check_raises "descending"
    (Invalid_argument "Taps.make: exponents must be strictly descending")
    (fun () -> ignore (Bor_lfsr.Taps.make ~width:8 [ 8; 3; 5 ]))

let test_taps_table_covers_2_to_32 () =
  for w = 2 to 32 do
    let t = Bor_lfsr.Taps.maximal w in
    check Alcotest.int (Printf.sprintf "width %d" w) w t.Bor_lfsr.Taps.width
  done;
  Alcotest.check_raises "width 33"
    (Invalid_argument "Taps.maximal: width must be in [2, 32]") (fun () ->
      ignore (Bor_lfsr.Taps.maximal 33))

let test_paper_32bit_configs () =
  check Alcotest.int "four configurations" 4
    (List.length Bor_lfsr.Taps.paper_32bit);
  List.iter
    (fun t -> check Alcotest.int "width 32" 32 t.Bor_lfsr.Taps.width)
    Bor_lfsr.Taps.paper_32bit

(* ---------------------------------------------------------------- Lfsr *)

(* The paper's Figure 6: the full 15-value cycle of the 4-bit LFSR. *)
let figure6_sequence =
  [
    0b0001; 0b1000; 0b0100; 0b0010; 0b1001; 0b1100; 0b0110; 0b1011; 0b0101;
    0b1010; 0b1101; 0b1110; 0b1111; 0b0111; 0b0011; 0b0001;
  ]

let test_figure6 () =
  let l = Bor_lfsr.Lfsr.create ~seed:1 (Bor_lfsr.Taps.maximal 4) in
  List.iteri
    (fun i expected ->
      check Alcotest.int (Printf.sprintf "value #%d" (i + 1)) expected
        (Bor_lfsr.Lfsr.peek l);
      ignore (Bor_lfsr.Lfsr.step l))
    figure6_sequence

let test_figure6_single_update () =
  (* "A 4-bit LFSR ... will update from the value 0110 to 1011." *)
  let l = Bor_lfsr.Lfsr.create ~seed:0b0110 (Bor_lfsr.Taps.maximal 4) in
  check Alcotest.int "0110 -> 1011" 0b1011 (Bor_lfsr.Lfsr.step l)

let period lfsr =
  let start = Bor_lfsr.Lfsr.peek lfsr in
  let rec go n =
    if Bor_lfsr.Lfsr.step lfsr = start then n + 1
    else if n > 1 lsl 22 then -1
    else go (n + 1)
  in
  go 0

let test_periods_small_widths () =
  List.iter
    (fun w ->
      let l = Bor_lfsr.Lfsr.create (Bor_lfsr.Taps.maximal w) in
      check Alcotest.int
        (Printf.sprintf "width %d has period 2^%d - 1" w w)
        ((1 lsl w) - 1)
        (period l))
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ]

let test_period_width_20 () =
  (* The paper's suggested design point. *)
  let l = Bor_lfsr.Lfsr.create (Bor_lfsr.Taps.maximal 20) in
  check Alcotest.int "2^20 - 1" ((1 lsl 20) - 1) (period l)

let test_zero_seed_rejected () =
  Alcotest.check_raises "zero seed"
    (Invalid_argument "Lfsr.create: seed reduces to all-zeros") (fun () ->
      ignore (Bor_lfsr.Lfsr.create ~seed:0 (Bor_lfsr.Taps.maximal 8)));
  Alcotest.check_raises "seed reduces to zero"
    (Invalid_argument "Lfsr.create: seed reduces to all-zeros") (fun () ->
      ignore (Bor_lfsr.Lfsr.create ~seed:0x100 (Bor_lfsr.Taps.maximal 8)))

let test_never_zero () =
  let l = Bor_lfsr.Lfsr.create ~seed:0xBEEF (Bor_lfsr.Taps.maximal 16) in
  for _ = 1 to 70_000 do
    check Alcotest.bool "non-zero" true (Bor_lfsr.Lfsr.step l <> 0)
  done

let test_shift_back () =
  let l = Bor_lfsr.Lfsr.create ~seed:0x5A5A5 (Bor_lfsr.Taps.maximal 20) in
  let before = Bor_lfsr.Lfsr.peek l in
  let banked = Bor_lfsr.Lfsr.shifted_out_bit l before in
  ignore (Bor_lfsr.Lfsr.step l);
  Bor_lfsr.Lfsr.shift_back l ~recovered_msb:banked;
  check Alcotest.int "state restored" before (Bor_lfsr.Lfsr.peek l);
  check Alcotest.int "update count restored" 0 (Bor_lfsr.Lfsr.updates l)

let prop_shift_back_inverts_step =
  QCheck.Test.make ~name:"shift_back inverts step for any state/width"
    QCheck.(pair (int_range 4 24) (int_bound 0xFFFFFF))
    (fun (w, seed) ->
      let seed = 1 + (seed land Bor_util.Bits.mask w) in
      let seed = if seed > Bor_util.Bits.mask w then 1 else seed in
      let l = Bor_lfsr.Lfsr.create ~seed (Bor_lfsr.Taps.maximal w) in
      let before = Bor_lfsr.Lfsr.peek l in
      let banked = Bor_lfsr.Lfsr.shifted_out_bit l before in
      ignore (Bor_lfsr.Lfsr.step l);
      Bor_lfsr.Lfsr.shift_back l ~recovered_msb:banked;
      Bor_lfsr.Lfsr.peek l = before)

let prop_maximal_period =
  QCheck.Test.make ~name:"maximal taps reach full period" ~count:20
    (QCheck.int_range 2 16) (fun w ->
      let l = Bor_lfsr.Lfsr.create (Bor_lfsr.Taps.maximal w) in
      period l = (1 lsl w) - 1)

(* ----------------------------------------------------------- Bit_select *)

let test_contiguous () =
  check
    Alcotest.(list int)
    "first k bits" [ 0; 1; 2 ]
    (Bor_lfsr.Bit_select.positions Bor_lfsr.Bit_select.Contiguous ~width:20
       ~k:3)

let test_spaced_distinct_and_bounded () =
  for k = 1 to 16 do
    let ps =
      Bor_lfsr.Bit_select.positions Bor_lfsr.Bit_select.Spaced ~width:20 ~k
    in
    check Alcotest.int "count" k (List.length ps);
    check Alcotest.int "distinct" k (List.length (List.sort_uniq compare ps));
    List.iter
      (fun p -> check Alcotest.bool "in range" true (p >= 0 && p < 20))
      ps
  done

let test_paper_example_spacing () =
  check
    Alcotest.(list int)
    "bits 0, 2, 5, 9 for 6.25%" [ 0; 2; 5; 9 ]
    (Bor_lfsr.Bit_select.paper_example 4)

let test_custom_validation () =
  Alcotest.check_raises "duplicates rejected"
    (Invalid_argument "Bit_select.positions: duplicate positions") (fun () ->
      ignore
        (Bor_lfsr.Bit_select.positions
           (Bor_lfsr.Bit_select.Custom (fun _ -> [ 1; 1 ]))
           ~width:20 ~k:2))

(* ---------------------------------------------------------------- Prob *)

let test_prob_mask_width () =
  let p = Bor_lfsr.Prob.create ~width:20 Bor_lfsr.Bit_select.Contiguous in
  for k = 1 to 16 do
    check Alcotest.int
      (Printf.sprintf "mask %d has %d bits" k k)
      k
      (Bor_util.Bits.popcount (Bor_lfsr.Prob.mask p ~k))
  done

let test_prob_taken_iff_all_set () =
  let p = Bor_lfsr.Prob.create ~width:20 Bor_lfsr.Bit_select.Contiguous in
  check Alcotest.bool "all ones taken" true
    (Bor_lfsr.Prob.taken p ~state:(Bor_util.Bits.mask 20) ~k:16);
  check Alcotest.bool "one missing bit not taken" false
    (Bor_lfsr.Prob.taken p ~state:(Bor_util.Bits.mask 20 - 1) ~k:16);
  check Alcotest.bool "k=1 checks bit 0" true
    (Bor_lfsr.Prob.taken p ~state:1 ~k:1)

let test_prob_rate_over_full_period () =
  (* Over one full period of a 16-bit LFSR, a size-k AND fires exactly
     2^(16-k) times (every state with those k bits set, minus none since
     zero state never occurs but has no bits set anyway). *)
  let width = 16 in
  let l = Bor_lfsr.Lfsr.create (Bor_lfsr.Taps.maximal width) in
  let p = Bor_lfsr.Prob.create ~width Bor_lfsr.Bit_select.Spaced in
  let takes = Array.make 17 0 in
  for _ = 1 to (1 lsl width) - 1 do
    for k = 1 to 16 do
      if Bor_lfsr.Prob.taken p ~state:(Bor_lfsr.Lfsr.peek l) ~k then
        takes.(k) <- takes.(k) + 1
    done;
    ignore (Bor_lfsr.Lfsr.step l)
  done;
  for k = 1 to 16 do
    check Alcotest.int
      (Printf.sprintf "k=%d fires 2^(16-%d) times" k k)
      (1 lsl (width - k))
      takes.(k)
  done

let test_prob_needs_width () =
  Alcotest.check_raises "width too small for 16 contiguous bits"
    (Invalid_argument "Bit_select.positions: bad k") (fun () ->
      ignore (Bor_lfsr.Prob.create ~width:8 Bor_lfsr.Bit_select.Contiguous))

(* The AND-input masks as [Prob.create] built them before tables were
   shared: one fold over [Bit_select.positions] per gate. *)
let fresh_masks ~width select =
  List.init 16 (fun i ->
      List.fold_left
        (fun m p -> m lor (1 lsl p))
        0
        (Bor_lfsr.Bit_select.positions select ~width ~k:(i + 1)))

let prob_masks p = List.init 16 (fun i -> Bor_lfsr.Prob.mask p ~k:(i + 1))

(* Named selectors get one shared table per width, equal to a freshly
   computed one at every width the register can hold; a custom
   selector is still built per call; a bad width raises every time, so
   a failed build publishes nothing. *)
let test_prob_shared_masks () =
  for width = 16 to 62 do
    List.iter
      (fun (name, select) ->
        let p = Bor_lfsr.Prob.create ~width select in
        check
          Alcotest.(list int)
          (Printf.sprintf "%s width %d" name width)
          (fresh_masks ~width select) (prob_masks p);
        check Alcotest.bool
          (Printf.sprintf "%s width %d shared" name width)
          true
          (Bor_lfsr.Prob.create ~width select == p))
      [ ("contiguous", Bor_lfsr.Bit_select.Contiguous);
        ("spaced", Bor_lfsr.Bit_select.Spaced) ]
  done;
  let custom = Bor_lfsr.Bit_select.Custom (fun k -> List.init k (fun j -> 39 - (2 * j))) in
  let p = Bor_lfsr.Prob.create ~width:40 custom in
  check Alcotest.(list int) "custom" (fresh_masks ~width:40 custom) (prob_masks p);
  check Alcotest.bool "custom built per call" false
    (Bor_lfsr.Prob.create ~width:40 custom == p);
  for _ = 1 to 2 do
    Alcotest.check_raises "spaced width 8 raises every call"
      (Invalid_argument "Bit_select.positions: bad k") (fun () ->
        ignore (Bor_lfsr.Prob.create ~width:8 Bor_lfsr.Bit_select.Spaced))
  done

(* The masks an engine's mux applies, read back through the register:
   at [state = m] gate k fires, and clearing any bit of the width stops
   it iff that bit is in the gate's mask. *)
let engine_masks e ~width =
  let lfsr = Bor_core.Engine.lfsr e in
  let full = Bor_util.Bits.mask width in
  List.init 16 (fun i ->
      let f = Bor_core.Freq.of_field i in
      let m = ref 0 in
      for b = 0 to width - 1 do
        Bor_lfsr.Lfsr.set_state lfsr (full lxor (1 lsl b));
        if not (Bor_core.Engine.would_take e f) then m := !m lor (1 lsl b)
      done;
      Bor_lfsr.Lfsr.set_state lfsr !m;
      if not (Bor_core.Engine.would_take e f) then
        Alcotest.failf "width %d gate %d misses its own mask" width (i + 1);
      !m)

(* Four domains make engines at once, each first to ask for some of the
   tables (widths no earlier case touched), so they race to publish;
   every engine still applies the freshly computed masks. *)
let test_engine_masks_across_domains () =
  let widths = List.init 12 (fun i -> 21 + i) in
  let selects = [ Bor_lfsr.Bit_select.Contiguous; Bor_lfsr.Bit_select.Spaced ] in
  let ready = Atomic.make 0 in
  let make () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    List.concat_map
      (fun width ->
        List.map
          (fun select -> (width, select, Bor_core.Engine.create ~width ~select ()))
          selects)
      widths
  in
  let engines =
    List.concat_map Domain.join (List.init 4 (fun _ -> Domain.spawn make))
  in
  check Alcotest.int "engines" (4 * 12 * 2) (List.length engines);
  List.iter
    (fun (width, select, e) ->
      check Alcotest.(list int)
        (Printf.sprintf "width %d" width)
        (fresh_masks ~width select) (engine_masks e ~width))
    engines

(* --------------------------------------------------------------- Galois *)

let test_galois_period () =
  List.iter
    (fun w ->
      let g = Bor_lfsr.Galois.create (Bor_lfsr.Taps.maximal w) in
      check Alcotest.int
        (Printf.sprintf "galois width %d maximal" w)
        ((1 lsl w) - 1)
        (Bor_lfsr.Galois.period g))
    [ 4; 8; 12; 16 ]

let test_galois_never_zero () =
  let g = Bor_lfsr.Galois.create ~seed:0xACE (Bor_lfsr.Taps.maximal 16) in
  for _ = 1 to 70_000 do
    check Alcotest.bool "non-zero" true (Bor_lfsr.Galois.step g <> 0)
  done

let test_galois_zero_seed_rejected () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Galois.create: seed reduces to all-zeros") (fun () ->
      ignore (Bor_lfsr.Galois.create ~seed:0 (Bor_lfsr.Taps.maximal 8)))

let prop_galois_matches_fibonacci =
  QCheck.Test.make ~name:"galois and fibonacci periods agree" ~count:12
    (QCheck.int_range 2 14) (fun w ->
      Bor_lfsr.Galois.matches_fibonacci_period (Bor_lfsr.Taps.maximal w))

let test_galois_bit_balance () =
  let g = Bor_lfsr.Galois.create ~seed:0xBEE (Bor_lfsr.Taps.maximal 20) in
  let ones = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Bor_lfsr.Galois.step g land 1 = 1 then incr ones
  done;
  check Alcotest.bool "balanced output bit" true
    (Float.abs ((Float.of_int !ones /. Float.of_int n) -. 0.5) < 0.01)

(* -------------------------------------------------------------- Quality *)

let test_bit_stream_balance () =
  let l = Bor_lfsr.Lfsr.create ~seed:0x1234 (Bor_lfsr.Taps.maximal 20) in
  let r = Bor_lfsr.Quality.bit_stream l ~position:0 ~samples:100_000 in
  check Alcotest.bool "ones fraction near 1/2" true
    (Float.abs (r.ones_fraction -. 0.5) < 0.01);
  check Alcotest.bool "low serial correlation" true
    (Float.abs r.serial_correlation < 0.02)

let test_take_stream_rate () =
  let l = Bor_lfsr.Lfsr.create ~seed:0x777 (Bor_lfsr.Taps.maximal 20) in
  let p = Bor_lfsr.Prob.create ~width:20 Bor_lfsr.Bit_select.Spaced in
  let r = Bor_lfsr.Quality.take_stream l p ~k:4 ~samples:200_000 in
  check Alcotest.bool "take rate near 1/16" true
    (Float.abs (r.ones_fraction -. 0.0625) < 0.004)

let test_adjacent_bits_conditional_dependence () =
  (* The paper's §3.3 analysis: with two ADJACENT bits ANDed, P(taken |
     previous taken) is ~50% instead of 25%, because one of the two bits
     is guaranteed to be 1 after a take. Spaced selection removes most
     of the effect. *)
  let taps = Bor_lfsr.Taps.maximal 20 in
  let contiguous =
    Bor_lfsr.Quality.conditional_take_rate
      (Bor_lfsr.Lfsr.create ~seed:0xACE taps)
      (Bor_lfsr.Prob.create ~width:20 Bor_lfsr.Bit_select.Contiguous)
      ~k:2 ~samples:200_000
  in
  let spaced =
    Bor_lfsr.Quality.conditional_take_rate
      (Bor_lfsr.Lfsr.create ~seed:0xACE taps)
      (Bor_lfsr.Prob.create ~width:20 Bor_lfsr.Bit_select.Spaced)
      ~k:2 ~samples:200_000
  in
  check Alcotest.bool "contiguous inflates to ~50%" true
    (Float.abs (contiguous -. 0.5) < 0.03);
  check Alcotest.bool "spaced stays near 25%" true
    (Float.abs (spaced -. 0.25) < 0.03)

let test_runs_distribution () =
  let l = Bor_lfsr.Lfsr.create ~seed:0x3A3A3 (Bor_lfsr.Taps.maximal 20) in
  let chi2 = Bor_lfsr.Quality.runs_chi2 l ~samples:200_000 ~max_run:10 in
  (* 9 degrees of freedom: the 99.9th percentile is ~27.9. *)
  check Alcotest.bool
    (Printf.sprintf "runs look coin-like (chi2 %.1f)" chi2)
    true (chi2 < 28.)

let test_poker () =
  let l = Bor_lfsr.Lfsr.create ~seed:0x3A3A3 (Bor_lfsr.Taps.maximal 20) in
  let chi2 = Bor_lfsr.Quality.poker_chi2 l ~samples:320_000 ~m:4 in
  (* 15 degrees of freedom: 99.9th percentile ~37.7. *)
  check Alcotest.bool
    (Printf.sprintf "4-bit words uniform (chi2 %.1f)" chi2)
    true (chi2 < 38.)

let test_short_lfsr_fails_poker () =
  (* A 6-bit LFSR has period 63: over many words the structure is
     glaring. The tests must be able to reject a bad generator. *)
  let l = Bor_lfsr.Lfsr.create (Bor_lfsr.Taps.maximal 6) in
  let chi2 = Bor_lfsr.Quality.poker_chi2 l ~samples:320_000 ~m:4 in
  check Alcotest.bool
    (Printf.sprintf "tiny register rejected (chi2 %.1f)" chi2)
    true (chi2 > 100.)

let prop_all_paper_taps_balanced =
  QCheck.Test.make ~name:"paper 32-bit taps give balanced bit 0" ~count:4
    (QCheck.int_range 0 3) (fun i ->
      let taps = List.nth Bor_lfsr.Taps.paper_32bit i in
      let l = Bor_lfsr.Lfsr.create ~seed:0xDEAD taps in
      let r = Bor_lfsr.Quality.bit_stream l ~position:0 ~samples:50_000 in
      Float.abs (r.ones_fraction -. 0.5) < 0.02)

let () =
  Alcotest.run "bor_lfsr"
    [
      ( "taps",
        [
          Alcotest.test_case "validation" `Quick test_taps_validation;
          Alcotest.test_case "table 2..32" `Quick test_taps_table_covers_2_to_32;
          Alcotest.test_case "paper 32-bit configs" `Quick
            test_paper_32bit_configs;
        ] );
      ( "lfsr",
        [
          Alcotest.test_case "figure 6 sequence" `Quick test_figure6;
          Alcotest.test_case "figure 6 single update" `Quick
            test_figure6_single_update;
          Alcotest.test_case "maximal periods (2..16)" `Slow
            test_periods_small_widths;
          Alcotest.test_case "period at width 20" `Slow test_period_width_20;
          Alcotest.test_case "zero seed rejected" `Quick test_zero_seed_rejected;
          Alcotest.test_case "never reaches zero" `Quick test_never_zero;
          Alcotest.test_case "shift back" `Quick test_shift_back;
          qtest prop_shift_back_inverts_step;
          qtest prop_maximal_period;
        ] );
      ( "galois",
        [
          Alcotest.test_case "maximal periods" `Slow test_galois_period;
          Alcotest.test_case "never zero" `Quick test_galois_never_zero;
          Alcotest.test_case "zero seed" `Quick test_galois_zero_seed_rejected;
          Alcotest.test_case "bit balance" `Quick test_galois_bit_balance;
          qtest prop_galois_matches_fibonacci;
        ] );
      ( "bit_select",
        [
          Alcotest.test_case "contiguous" `Quick test_contiguous;
          Alcotest.test_case "spaced" `Quick test_spaced_distinct_and_bounded;
          Alcotest.test_case "paper example" `Quick test_paper_example_spacing;
          Alcotest.test_case "custom validation" `Quick test_custom_validation;
        ] );
      ( "prob",
        [
          Alcotest.test_case "mask widths" `Quick test_prob_mask_width;
          Alcotest.test_case "taken iff all bits set" `Quick
            test_prob_taken_iff_all_set;
          Alcotest.test_case "exact rate over a full period" `Slow
            test_prob_rate_over_full_period;
          Alcotest.test_case "width guard" `Quick test_prob_needs_width;
          Alcotest.test_case "engines on four domains" `Quick
            test_engine_masks_across_domains;
          Alcotest.test_case "shared masks = fresh table" `Quick
            test_prob_shared_masks;
        ] );
      ( "quality",
        [
          Alcotest.test_case "bit balance" `Quick test_bit_stream_balance;
          Alcotest.test_case "take rate" `Quick test_take_stream_rate;
          Alcotest.test_case "adjacent-bit dependence (paper §3.3)" `Quick
            test_adjacent_bits_conditional_dependence;
          Alcotest.test_case "run-length distribution" `Quick
            test_runs_distribution;
          Alcotest.test_case "poker test" `Quick test_poker;
          Alcotest.test_case "poker rejects a short register" `Quick
            test_short_lfsr_fails_poker;
          qtest prop_all_paper_taps_balanced;
        ] );
    ]
