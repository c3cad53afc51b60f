(* Tests for Bor_sampling: framework semantics, the overlap metric,
   convergent profiling, the experiment driver, ranked-set window
   selection (Rank) and the online CI stopping rule (Stopping) — the
   latter two with hand-computed vectors and exec-level byte-identity
   checks against the sampled pipeline. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* -------------------------------------------------------------- Sampler *)

let take_pattern sampler n =
  List.init n (fun _ -> Bor_sampling.Sampler.visit sampler)

let count_true = List.fold_left (fun a b -> if b then a + 1 else a) 0

let test_software_counter_period () =
  let s = Bor_sampling.Sampler.software_counter ~reset:4 () in
  let pattern = take_pattern s 16 in
  check Alcotest.int "4 samples in 16 visits" 4 (count_true pattern);
  (* Figure 1 semantics: deterministic, equally spaced. *)
  let positions =
    List.mapi (fun i b -> (i, b)) pattern |> List.filter snd |> List.map fst
  in
  match positions with
  | [ a; b; c; d ] ->
    check Alcotest.int "spacing" 4 (b - a);
    check Alcotest.int "spacing" 4 (c - b);
    check Alcotest.int "spacing" 4 (d - c)
  | _ -> Alcotest.fail "expected 4 samples"

let test_software_counter_phase () =
  let s = Bor_sampling.Sampler.software_counter ~start:0 ~reset:8 () in
  check Alcotest.bool "fires immediately with start 0" true
    (Bor_sampling.Sampler.visit s);
  check Alcotest.bool "then waits" false (Bor_sampling.Sampler.visit s)

let test_hardware_counter_deterministic () =
  let a = Bor_sampling.Sampler.hardware_counter ~interval:16 () in
  let b = Bor_sampling.Sampler.hardware_counter ~interval:16 () in
  check
    Alcotest.(list bool)
    "same stream" (take_pattern a 64) (take_pattern b 64);
  check Alcotest.int "4 samples in 64" 4 (count_true (take_pattern a 64))

let test_brr_sampler_rate () =
  let s =
    Bor_sampling.Sampler.branch_on_random
      ~engine:(Bor_core.Engine.create ~seed:0x3FA7 ())
      (Bor_core.Freq.of_period 8)
  in
  let n = 80_000 in
  let takes = count_true (take_pattern s n) in
  let expected = n / 8 in
  check Alcotest.bool
    (Printf.sprintf "%d near %d" takes expected)
    true
    (abs (takes - expected) < 500)

let test_names_match_paper_legend () =
  check Alcotest.string "sw" "sw count"
    (Bor_sampling.Sampler.name
       (Bor_sampling.Sampler.software_counter ~reset:4 ()));
  check Alcotest.string "hw" "hw count"
    (Bor_sampling.Sampler.name
       (Bor_sampling.Sampler.hardware_counter ~interval:4 ()));
  check Alcotest.string "random" "random"
    (Bor_sampling.Sampler.name
       (Bor_sampling.Sampler.branch_on_random (Bor_core.Freq.of_field 0)))

let test_expected_rate () =
  check (Alcotest.float 1e-9) "sw" 0.25
    (Bor_sampling.Sampler.expected_rate
       (Bor_sampling.Sampler.software_counter ~reset:4 ()));
  check (Alcotest.float 1e-9) "brr" (1. /. 1024.)
    (Bor_sampling.Sampler.expected_rate
       (Bor_sampling.Sampler.branch_on_random (Bor_core.Freq.of_period 1024)))

(* -------------------------------------------------------------- Profile *)

let profile_of assoc =
  let p = Bor_sampling.Profile.create () in
  List.iter (fun (id, n) -> Bor_sampling.Profile.record_many p id n) assoc;
  p

let test_profile_counting () =
  let p = profile_of [ (1, 3); (2, 1) ] in
  Bor_sampling.Profile.record p 1;
  check Alcotest.int "count" 4 (Bor_sampling.Profile.count p 1);
  check Alcotest.int "total" 5 (Bor_sampling.Profile.total p);
  check Alcotest.int "distinct" 2 (Bor_sampling.Profile.distinct_sites p);
  check (Alcotest.float 1e-9) "fraction" 0.8 (Bor_sampling.Profile.fraction p 1)

let test_profile_top () =
  let p = profile_of [ (1, 5); (2, 9); (3, 1) ] in
  check
    Alcotest.(list (pair int int))
    "top 2"
    [ (2, 9); (1, 5) ]
    (Bor_sampling.Profile.top p 2)

let test_accuracy_identical () =
  let p = profile_of [ (1, 10); (2, 30) ] in
  check (Alcotest.float 1e-9) "identical = 1" 1.
    (Bor_sampling.Profile.accuracy ~full:p
       ~sampled:(Bor_sampling.Profile.copy p))

let test_accuracy_scaled () =
  (* Overlap is a function of fractions: a perfectly scaled-down sample
     scores 1. *)
  let full = profile_of [ (1, 100); (2, 300) ] in
  let sampled = profile_of [ (1, 10); (2, 30) ] in
  check (Alcotest.float 1e-9) "scaled = 1" 1.
    (Bor_sampling.Profile.accuracy ~full ~sampled)

let test_accuracy_paper_example () =
  (* "if method1 accounts for 50% ... while sampling reports 60%, the
     method contributes 50% to the profile's accuracy." *)
  let full = profile_of [ (1, 50); (2, 50) ] in
  let sampled = profile_of [ (1, 60); (2, 40) ] in
  check (Alcotest.float 1e-9) "90%" 0.9
    (Bor_sampling.Profile.accuracy ~full ~sampled)

let test_accuracy_empty_sample () =
  let full = profile_of [ (1, 5) ] in
  check (Alcotest.float 1e-9) "empty = 0" 0.
    (Bor_sampling.Profile.accuracy ~full
       ~sampled:(Bor_sampling.Profile.create ()))

let test_profile_merge () =
  let a = profile_of [ (1, 2) ] in
  let b = profile_of [ (1, 3); (2, 1) ] in
  Bor_sampling.Profile.merge_into ~dst:a b;
  check Alcotest.int "merged count" 5 (Bor_sampling.Profile.count a 1);
  check Alcotest.int "merged total" 6 (Bor_sampling.Profile.total a)

let gen_profile =
  QCheck.Gen.(
    map
      (fun pairs ->
        profile_of
          (List.map (fun (i, n) -> (i mod 20, 1 + (n mod 50))) pairs))
      (list_size (int_range 1 20) (pair (int_bound 100) (int_bound 100))))

let prop_accuracy_bounded =
  QCheck.Test.make ~name:"accuracy lies in [0, 1]" ~count:200
    (QCheck.make (QCheck.Gen.pair gen_profile gen_profile))
    (fun (full, sampled) ->
      let a = Bor_sampling.Profile.accuracy ~full ~sampled in
      a >= 0. && a <= 1. +. 1e-9)

let prop_accuracy_self =
  QCheck.Test.make ~name:"accuracy of a profile against itself is 1"
    ~count:100 (QCheck.make gen_profile) (fun p ->
      Float.abs (Bor_sampling.Profile.accuracy ~full:p ~sampled:p -. 1.)
      < 1e-9)

(* ------------------------------------------------------------ Experiment *)

let uniform_stream n k f =
  for i = 0 to n - 1 do
    f (i mod k)
  done

let test_collect () =
  let sampler = Bor_sampling.Sampler.software_counter ~reset:10 () in
  let full, sampled =
    Bor_sampling.Experiment.collect (uniform_stream 1000 4) sampler
  in
  check Alcotest.int "full total" 1000 (Bor_sampling.Profile.total full);
  check Alcotest.int "sampled total" 100 (Bor_sampling.Profile.total sampled)

let test_resonance_detected_by_counters_only () =
  (* A strictly alternating two-site stream sampled at an even interval:
     counters see only one site; branch-on-random sees both. This is the
     paper's footnote 7. *)
  let stream f =
    for i = 0 to 99_999 do
      f (i land 1)
    done
  in
  let sw_acc =
    Bor_sampling.Experiment.accuracy_of stream
      (Bor_sampling.Sampler.software_counter ~reset:64 ())
  in
  let brr_acc =
    Bor_sampling.Experiment.accuracy_of stream
      (Bor_sampling.Sampler.branch_on_random (Bor_core.Freq.of_period 64))
  in
  check Alcotest.bool
    (Printf.sprintf "counter collapses to one site (%.2f)" sw_acc)
    true (sw_acc <= 0.51);
  check Alcotest.bool
    (Printf.sprintf "random sees both (%.2f)" brr_acc)
    true (brr_acc > 0.9)

let test_accuracy_summary () =
  let stream = uniform_stream 50_000 8 in
  let summary =
    Bor_sampling.Experiment.accuracy_summary
      (fun seed ->
        Bor_sampling.Sampler.branch_on_random
          ~engine:(Bor_core.Engine.create ~seed ())
          (Bor_core.Freq.of_period 64))
      stream ~seeds:[ 101; 202; 303; 404 ]
  in
  check Alcotest.int "four runs" 4 summary.Bor_util.Stats.n;
  check Alcotest.bool "high accuracy on uniform stream" true
    (summary.Bor_util.Stats.mean > 0.9)

(* ------------------------------------------------------------ Convergent *)

let test_convergent_anneals_on_stable_profile () =
  let c =
    Bor_sampling.Convergent.create
      ~engine:(Bor_core.Engine.create ~seed:0x123 ())
      ~window:128 ()
  in
  (* Stable behaviour: uniform rotation over 4 sites. *)
  for i = 0 to 400_000 do
    ignore (Bor_sampling.Convergent.visit c (i land 3))
  done;
  check Alcotest.bool "frequency annealed below the initial rate" true
    (Bor_core.Freq.to_field (Bor_sampling.Convergent.frequency c) > 0);
  check Alcotest.bool "adaptations recorded" true
    (List.length (Bor_sampling.Convergent.adaptations c) > 0)

let test_convergent_reacts_to_phase_change () =
  let c =
    Bor_sampling.Convergent.create
      ~engine:(Bor_core.Engine.create ~seed:0x777 ())
      ~window:128 ~threshold:0.02 ()
  in
  for i = 0 to 200_000 do
    ignore (Bor_sampling.Convergent.visit c (i land 3))
  done;
  let annealed =
    Bor_core.Freq.to_field (Bor_sampling.Convergent.frequency c)
  in
  (* Phase change: completely different sites. *)
  for i = 0 to 400_000 do
    ignore (Bor_sampling.Convergent.visit c (100 + (i land 7)))
  done;
  let after = Bor_core.Freq.to_field (Bor_sampling.Convergent.frequency c) in
  check Alcotest.bool
    (Printf.sprintf "rate raised on drift (%d -> %d)" annealed after)
    true (after < annealed)

let test_convergent_bookkeeping () =
  let c =
    Bor_sampling.Convergent.create
      ~engine:(Bor_core.Engine.create ~seed:0x5 ())
      ~window:64 ()
  in
  for i = 0 to 100_000 do
    ignore (Bor_sampling.Convergent.visit c (i land 1))
  done;
  check Alcotest.int "visits" 100_001 (Bor_sampling.Convergent.visits c);
  check Alcotest.bool "samples recorded" true
    (Bor_sampling.Convergent.samples c > 0);
  check Alcotest.int "profile total = samples"
    (Bor_sampling.Convergent.samples c)
    (Bor_sampling.Profile.total (Bor_sampling.Convergent.profile c))

(* -------------------------------------------------------------- Per_site *)

let test_per_site_anneals_independently () =
  let t =
    Bor_sampling.Per_site.create
      ~engine:(Bor_core.Engine.create ~seed:0x909 ())
      ~target_samples:32 ()
  in
  (* Site 0 is hot (visited ~50x more than site 1). *)
  for i = 0 to 200_000 do
    ignore (Bor_sampling.Per_site.visit t (if i mod 50 = 0 then 1 else 0))
  done;
  let f0 = Bor_core.Freq.to_field (Bor_sampling.Per_site.frequency t 0) in
  let f1 = Bor_core.Freq.to_field (Bor_sampling.Per_site.frequency t 1) in
  (* Reaching field k takes ~32*(2^(k+1)-2) visits: the hot site (~196k
     visits) lands near field 10-11, the cold one (~4k) near 5-6. *)
  check Alcotest.bool
    (Printf.sprintf "hot site slowed more (field %d vs %d)" f0 f1)
    true (f0 >= f1 + 3);
  check Alcotest.bool "cold site still comparatively fast" true (f1 <= 7)

let test_per_site_estimates_unbiased () =
  let t =
    Bor_sampling.Per_site.create
      ~engine:(Bor_core.Engine.create ~seed:0x42 ())
      ~target_samples:64 ()
  in
  let true_counts = [| 400_000; 40_000; 4_000 |] in
  let rng = Bor_util.Prng.create ~seed:5 in
  let remaining = Array.copy true_counts in
  let total = Array.fold_left ( + ) 0 true_counts in
  for _ = 1 to total do
    (* Draw a site proportional to remaining visits. *)
    let rec pick () =
      let s = Bor_util.Prng.int rng 3 in
      if remaining.(s) > 0 then s else pick ()
    in
    let s = pick () in
    remaining.(s) <- remaining.(s) - 1;
    ignore (Bor_sampling.Per_site.visit t s)
  done;
  List.iter
    (fun (site, est) ->
      let truth = Float.of_int true_counts.(site) in
      let err = Float.abs (est -. truth) /. truth in
      check Alcotest.bool
        (Printf.sprintf "site %d estimate %.0f vs %.0f (err %.2f)" site est
           truth err)
        true (err < 0.25))
    (Bor_sampling.Per_site.estimated_counts t)

let test_per_site_budget_beats_global_on_tail () =
  (* With per-site annealing, cold sites keep sampling fast, so the tail
     is observed with far fewer total samples than a global rate that
     would catch it equally well. *)
  let engine_seed = 0xCAFE in
  let t =
    Bor_sampling.Per_site.create
      ~engine:(Bor_core.Engine.create ~seed:engine_seed ())
      ~target_samples:16 ()
  in
  let rng = Bor_util.Prng.create ~seed:77 in
  let zipf = Bor_util.Zipf.create ~n:64 ~alpha:1.4 in
  for _ = 1 to 500_000 do
    ignore (Bor_sampling.Per_site.visit t (Bor_util.Zipf.sample zipf rng))
  done;
  let profile = Bor_sampling.Per_site.profile t in
  let observed = Bor_sampling.Profile.distinct_sites profile in
  check Alcotest.bool
    (Printf.sprintf "tail coverage: %d sites seen with %d samples" observed
       (Bor_sampling.Per_site.samples t))
    true
    (observed >= 50 && Bor_sampling.Per_site.samples t < 100_000)

(* ------------------------------------------------------------------ Rank *)

module Rank = Bor_sampling.Rank
module Stopping = Bor_sampling.Stopping

(* A signature with [instrs] instructions and chosen penalty events;
   everything else zero. *)
let sig_ ?(instrs = 1000) ?(l1i = 0) ?(l1d = 0) ?(l2 = 0) ?(mp = 0)
    ?(loads = 0) ?(stores = 0) ?(branches = 0) () =
  {
    Rank.instructions = instrs;
    loads;
    stores;
    branches;
    l1i_misses = l1i;
    l1d_misses = l1d;
    l2_misses = l2;
    mispredicts = mp;
  }

let test_rank_score_ordering () =
  (* Penalty weights order the event kinds: an L2 miss costs more than
     a mispredict, which costs more than an L1 miss, which costs more
     than a plain memory access. *)
  let s_mem = Rank.score (sig_ ~loads:10 ())
  and s_l1 = Rank.score (sig_ ~l1d:10 ())
  and s_mp = Rank.score (sig_ ~mp:10 ())
  and s_l2 = Rank.score (sig_ ~l2:10 ()) in
  check Alcotest.bool "l2 > mispredict" true (s_l2 > s_mp);
  check Alcotest.bool "mispredict > l1" true (s_mp > s_l1);
  check Alcotest.bool "l1 > mem op" true (s_l1 > s_mem);
  check Alcotest.bool "all above base" true (s_mem > 1.);
  check (Alcotest.float 1e-9) "event-free stretch scores base CPI" 1.
    (Rank.score (sig_ ()));
  check (Alcotest.float 1e-9) "empty stretch scores zero" 0.
    (Rank.score (sig_ ~instrs:0 ()))

let test_rank_score_normalized () =
  (* The score is per-instruction: the same miss density at twice the
     length scores identically. *)
  check (Alcotest.float 1e-9) "density, not mass"
    (Rank.score (sig_ ~instrs:1000 ~l1d:10 ()))
    (Rank.score (sig_ ~instrs:2000 ~l1d:20 ()))

let test_rank_sub () =
  let a = sig_ ~instrs:500 ~l1d:7 ~l2:3 ~mp:2 ~loads:50 () in
  let b = Rank.sub (sig_ ~instrs:800 ~l1d:9 ~l2:4 ~mp:6 ~loads:70 ()) a in
  check Alcotest.int "instructions" 300 b.Rank.instructions;
  check Alcotest.int "l1d" 2 b.Rank.l1d_misses;
  check Alcotest.int "l2" 1 b.Rank.l2_misses;
  check Alcotest.int "mispredicts" 4 b.Rank.mispredicts;
  check Alcotest.int "loads" 20 b.Rank.loads

(* Push labeled candidates with the given per-candidate L1 miss counts
   (the score is monotone in them) and return the selection order. *)
let select_all ?seed ~bands misses =
  let sel = Rank.selector ?seed ~bands () in
  let picked = ref [] in
  List.iteri
    (fun i m ->
      match Rank.push sel i (sig_ ~l1d:m ()) with
      | Some p -> picked := p :: !picked
      | None -> ())
    misses;
  (match Rank.drain sel with Some p -> picked := p :: !picked | None -> ());
  (List.rev !picked, Rank.candidates sel, Rank.sets sel)

let test_rank_cycling_order_statistic () =
  (* bands = 3, seed 0: set 0 takes its rank-0 (lowest-score) member,
     set 1 its rank-1, set 2 its rank-2, cycling. Scores are arranged
     so each set's sorted order differs from arrival order. *)
  let picked, candidates, sets =
    select_all ~bands:3 [ 1; 5; 9; 9; 1; 5; 5; 9; 1 ]
  in
  (* set 0 = {0:1, 1:5, 2:9} rank 0 -> 0; set 1 = {3:9, 4:1, 5:5}
     rank 1 -> 5; set 2 = {6:5, 7:9, 8:1} rank 2 -> 7. *)
  check Alcotest.(list int) "cycling selection" [ 0; 5; 7 ] picked;
  check Alcotest.int "candidates" 9 candidates;
  check Alcotest.int "sets" 3 sets

let test_rank_seed_rotates_start () =
  let misses = [ 1; 5; 9; 9; 1; 5; 5; 9; 1 ] in
  let picked1, _, _ = select_all ~seed:1 ~bands:3 misses in
  (* seed 1 starts the cycle at rank 1: set 0 -> rank 1 (=1), set 1 ->
     rank 2 (=3), set 2 -> rank 0 (=8). *)
  check Alcotest.(list int) "seed 1" [ 1; 3; 8 ] picked1;
  let picked4, _, _ = select_all ~seed:4 ~bands:3 misses in
  check Alcotest.(list int) "seed is taken mod bands" [ 1; 3; 8 ] picked4;
  let again, _, _ = select_all ~seed:1 ~bands:3 misses in
  check Alcotest.(list int) "same seed, same selection" picked1 again

let test_rank_ties_break_by_arrival () =
  (* All-identical signatures: within-set rank is arrival order. *)
  let picked, _, _ = select_all ~bands:3 [ 4; 4; 4; 4; 4; 4 ] in
  check Alcotest.(list int) "arrival-order ranks" [ 0; 4 ] picked

let test_rank_partial_final_set () =
  (* 8 candidates at bands = 3: the last set has 2 members and still
     contributes one window (clamped order statistic: rank 2 of a
     2-member set is its rank 1 = higher-scoring member). *)
  let picked, candidates, sets =
    select_all ~bands:3 [ 1; 5; 9; 9; 1; 5; 7; 2 ]
  in
  check Alcotest.(list int) "partial set clamps" [ 0; 5; 6 ] picked;
  check Alcotest.int "candidates" 8 candidates;
  check Alcotest.int "sets (partial counted)" 3 sets

let test_rank_fewer_candidates_than_bands () =
  (* Fewer windows than bands: one set, clamped selection, nothing
     lost. *)
  let picked, candidates, sets = select_all ~seed:2 ~bands:8 [ 3; 1 ] in
  (* rank0 = 2, clamped to size-1 = 1: the higher-scoring member, which
     arrived first (miss count 3 > 1). *)
  check Alcotest.(list int) "clamped to the set" [ 0 ] picked;
  check Alcotest.int "candidates" 2 candidates;
  check Alcotest.int "sets" 1 sets;
  let none, c0, s0 = select_all ~bands:4 [] in
  check Alcotest.(list int) "empty stream selects nothing" [] none;
  check Alcotest.int "no candidates" 0 c0;
  check Alcotest.int "no sets" 0 s0

let test_rank_bands_one_selects_everything () =
  let picked, _, _ = select_all ~bands:1 [ 9; 1; 5 ] in
  check Alcotest.(list int) "K = 1 is the identity schedule" [ 0; 1; 2 ]
    picked

let test_rank_invalid_bands () =
  Alcotest.check_raises "bands = 0 rejected"
    (Invalid_argument "Rank.selector: bands must be >= 1") (fun () ->
      ignore (Rank.selector ~bands:0 ()))

(* -------------------------------------------------------------- Stopping *)

let test_stopping_hand_computed_ci () =
  (* Stream 2,4,4,4,5,5,7,9: mean 5, sample variance 32/7, so
     ci95 = 1.96 * sqrt(32/7) / sqrt 8 = 1.4816207...  Checked at the
     intermediate steps too (Welford vs hand arithmetic). *)
  let s = Stopping.create ~target_pct:50. () in
  check (Alcotest.float 1e-9) "no samples: ci 0" 0. (Stopping.ci95 s);
  Stopping.observe s 2.;
  check (Alcotest.float 1e-9) "one sample: ci still 0" 0. (Stopping.ci95 s);
  Stopping.observe s 4.;
  check (Alcotest.float 1e-9) "mean of 2,4" 3. (Stopping.mean s);
  (* stddev sqrt 2, ci = 1.96 * sqrt 2 / sqrt 2 = 1.96 exactly. *)
  check (Alcotest.float 1e-9) "ci of 2,4" 1.96 (Stopping.ci95 s);
  List.iter (Stopping.observe s) [ 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Stopping.count s);
  check (Alcotest.float 1e-9) "mean" 5. (Stopping.mean s);
  check
    (Alcotest.float 1e-7)
    "ci95"
    (1.96 *. sqrt (32. /. 7.) /. sqrt 8.)
    (Stopping.ci95 s)

let test_stopping_welford_matches_two_pass () =
  (* The streaming estimate must agree with the two-pass
     Stats.summarize on every prefix — an independent implementation
     of the same statistic. *)
  let stream = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9.; 5.; 5.; 3.; 6. ] in
  let s = Stopping.create ~min_windows:2 ~target_pct:25. () in
  let prefix = ref [] in
  List.iter
    (fun x ->
      Stopping.observe s x;
      prefix := x :: !prefix;
      let n = List.length !prefix in
      if n >= 2 then begin
        let two_pass = Bor_util.Stats.summarize (List.rev !prefix) in
        check
          (Alcotest.float 1e-9)
          (Printf.sprintf "mean after %d" n)
          two_pass.Bor_util.Stats.mean (Stopping.mean s);
        check
          (Alcotest.float 1e-7)
          (Printf.sprintf "ci95 after %d" n)
          (Bor_util.Stats.ci95_halfwidth two_pass)
          (Stopping.ci95 s)
      end)
    stream

let test_stopping_stop_index_on_scripted_stream () =
  (* A noisy prefix, then a run of identical samples: the rule must
     fire at the exact first index where the prefix CI clears the
     target, independently recomputed per prefix with summarize. *)
  let stream = [ 1.0; 3.0; 2.0; 2.0; 2.0; 2.0; 2.0; 2.0; 2.0; 2.0 ] in
  let target_pct = 20. in
  let expected =
    let rec go acc = function
      | [] -> None
      | x :: rest ->
        let acc = acc @ [ x ] in
        let n = List.length acc in
        let st = Bor_util.Stats.summarize acc in
        if
          n >= 2
          && Bor_util.Stats.ci95_halfwidth st
             <= target_pct /. 100. *. st.Bor_util.Stats.mean
        then Some n
        else go acc rest
    in
    go [] stream
  in
  let s = Stopping.create ~min_windows:2 ~target_pct () in
  let actual = ref None in
  List.iter
    (fun x ->
      if !actual = None then begin
        Stopping.observe s x;
        if Stopping.satisfied s then actual := Some (Stopping.count s)
      end)
    stream;
  check
    Alcotest.(option int)
    "stop index matches the reference fold" expected !actual;
  check Alcotest.bool "and it does stop on this stream" true
    (!actual <> None)

let test_stopping_min_windows_floor () =
  (* Identical samples have zero variance from n = 2 on, but the rule
     may not fire before min_windows. *)
  let s = Stopping.create ~target_pct:5. () in
  for i = 1 to Stopping.default_min_windows - 1 do
    Stopping.observe s 2.;
    check Alcotest.bool
      (Printf.sprintf "not satisfied at %d" i)
      false (Stopping.satisfied s)
  done;
  Stopping.observe s 2.;
  check Alcotest.bool "satisfied exactly at the floor" true
    (Stopping.satisfied s)

let test_stopping_zero_target_never_fires () =
  let s = Stopping.create ~target_pct:0. () in
  check Alcotest.bool "inactive" false (Stopping.active s);
  for _ = 1 to 100 do
    Stopping.observe s 2.
  done;
  (* Zero variance and far past the floor — still not satisfied,
     because the rule is off. *)
  check Alcotest.bool "never satisfied" false (Stopping.satisfied s)

let test_stopping_invalid_args () =
  Alcotest.check_raises "negative target rejected"
    (Invalid_argument "Stopping.create: target_pct must be >= 0") (fun () ->
      ignore (Stopping.create ~target_pct:(-1.) ()));
  Alcotest.check_raises "min_windows < 2 rejected"
    (Invalid_argument "Stopping.create: min_windows must be >= 2") (fun () ->
      ignore (Stopping.create ~min_windows:1 ~target_pct:5. ()))

(* ------------------------------------------ exec-level byte identity *)

let stop_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 40000; i = i + 1) s \
        = s + i * 3; return s; }")
      .Bor_minic.Driver.program

let plan_exn s =
  match Bor_uarch.Sampling_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* Run the sampled pipeline and return (stats, telemetry JSON text)
   under a clean, enabled registry; restores the caller's state. *)
let sampled_snapshot ?rank_bands ?ci_target ?domains plan prog =
  let was = Bor_telemetry.Telemetry.is_enabled () in
  Bor_telemetry.Telemetry.clear ();
  Bor_telemetry.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Bor_telemetry.Telemetry.clear ();
      Bor_telemetry.Telemetry.set_enabled was)
    (fun () ->
      let t = Bor_uarch.Pipeline.create prog in
      match
        Result.bind
          (Bor_uarch.Sampling_plan.with_selection ?rank_bands ?ci_target plan)
          (fun plan -> Bor_exec.Sampled.run_on ?domains ~plan t)
      with
      | Error e -> Alcotest.fail e
      | Ok st ->
        ( st,
          Bor_telemetry.Json.to_string (Bor_telemetry.Telemetry.to_json ()) ))

let test_ci_target_zero_is_byte_identical () =
  (* --ci-target 0 must reproduce the plain fixed-period run exactly:
     same stats record, same telemetry bytes. Same for --rank-bands 1.
     This is the compatibility half of the determinism contract. *)
  let prog = Lazy.force stop_prog in
  let plan = plan_exn "50:100:1500:11" in
  let base_st, base_tel = sampled_snapshot plan prog in
  let st0, tel0 = sampled_snapshot ~rank_bands:1 ~ci_target:0. plan prog in
  check Alcotest.bool "stats identical" true (base_st = st0);
  check Alcotest.string "telemetry identical" base_tel tel0;
  check Alcotest.bool "full window set, not stopped" false
    st0.Bor_exec.Sampled.sp_stopped

let test_ci_target_non_finite_rejected () =
  (* [nan] slips past a plain [< 0.] test and [infinity] renders as
     target_milli=0; both must be refused before any window runs, by
     the plan constructor the CLI, serve and the differential runner
     all build their plans through — no plan, so no run, can carry
     them. *)
  let plan = plan_exn "50:100:1500:11" in
  List.iter
    (fun (what, ci_target) ->
      match Bor_uarch.Sampling_plan.with_selection ~ci_target plan with
      | Ok _ -> Alcotest.failf "ci_target %s accepted" what
      | Error e ->
        check Alcotest.string (what ^ " error")
          "CI target must be a finite number >= 0 (--ci-target)" e)
    [ ("nan", Float.nan); ("infinity", Float.infinity) ]

let test_ranked_stopping_domain_invariant () =
  (* The feature half, over the knob corners that share the one sweep:
     fixed-period and ranked selection with stopping on, and ranked
     selection with stopping off — sequential vs 3 domains, stats
     records and the raw telemetry JSON must both be identical; no
     telemetry family depends on the domain count. *)
  let prog = Lazy.force stop_prog in
  let plan = plan_exn "50:100:1500:11" in
  List.iter
    (fun (rank_bands, ci_target) ->
      let what = Printf.sprintf "K=%d target=%g" rank_bands ci_target in
      let st1, tel1 =
        sampled_snapshot ~rank_bands ~ci_target ~domains:1 plan prog
      in
      let st3, tel3 =
        sampled_snapshot ~rank_bands ~ci_target ~domains:3 plan prog
      in
      check Alcotest.bool (what ^ ": stats identical across domains") true
        (st1 = st3);
      check Alcotest.string (what ^ ": telemetry identical across domains")
        tel1 tel3;
      check Alcotest.bool (what ^ ": measured windows") true
        (st1.Bor_exec.Sampled.sp_windows > 0);
      check Alcotest.int (what ^ ": the sweep warms every instruction")
        st1.Bor_exec.Sampled.sp_instructions st1.Bor_exec.Sampled.sp_warmed;
      if rank_bands > 1 then
        let counter name =
          match Bor_telemetry.Json.(member name (of_string tel1)) with
          | Some (Bor_telemetry.Json.Int n) -> n
          | _ -> Alcotest.failf "%s: %s missing" what name
        in
        check Alcotest.int (what ^ ": one selection per ranked set")
          (counter "sampling.rank.sets") (counter "sampling.rank.selected"))
    [ (1, 2.); (3, 2.); (3, 0.) ]

(* ----------------------------------------------------- plan decoder *)

module Sp = Bor_uarch.Sampling_plan

(* Mutated W:D:P[:SEED] strings: a plan-shaped string, then up to
   three bit flips, truncations, or field swaps to huge, negative or
   oddly spelled numbers. *)
let gen_plan_string =
  let open QCheck.Gen in
  let odd_field =
    oneofl
      [
        string_of_int max_int; string_of_int min_int; "-1"; "0"; "-0"; "+7";
        "0x1f"; "1_000"; "99999999999999999999"; ""; " 5"; "nan";
      ]
  in
  let mutate s =
    if s = "" then return s
    else
      let n = String.length s in
      frequency
        [
          ( 3,
            map2
              (fun i bit ->
                String.mapi
                  (fun j c ->
                    if j = i mod n then Char.chr (Char.code c lxor (1 lsl bit))
                    else c)
                  s)
              nat (int_bound 7) );
          (2, map (fun k -> String.sub s 0 (k mod (n + 1))) nat);
          ( 3,
            map2
              (fun i f ->
                let fields = String.split_on_char ':' s in
                let i = i mod List.length fields in
                String.concat ":"
                  (List.mapi (fun j x -> if j = i then f else x) fields))
              nat odd_field );
        ]
  in
  let* warmup = int_bound 1000 in
  let* window = int_bound 1000 in
  let* period = int_bound 5000 in
  let* seed = opt (int_bound 100) in
  let base =
    String.concat ":"
      (List.map string_of_int
         ([ warmup; window; period ] @ Option.to_list seed))
  in
  let* rounds = int_bound 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go rounds base

let gen_rank_bands =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-3) 70);
        (1, oneofl [ 0; 1; 64; 65; 1_000_000; max_int; min_int ]);
      ])

let gen_ci_target =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map (fun k -> float_of_int k /. 1e6) (int_range (-1000) 10_000_000)
        );
        ( 1,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; -5.;
              2.0000001; 1e-7; 1. /. 3.; 1e300; Float.max_float;
            ] );
      ])

(* Decode the lines [Sp.key_lines] renders back into a plan. *)
let plan_of_key_lines = function
  | plan_line :: knobs ->
    let value prefix line =
      let n = String.length prefix in
      if String.length line > n && String.sub line 0 n = prefix then
        Some (String.sub line n (String.length line - n))
      else None
    in
    let knob prefix parse =
      List.find_map (fun l -> Option.map parse (value prefix l)) knobs
    in
    Result.bind
      (Sp.of_string (Option.value ~default:"" (value "plan=" plan_line)))
      (Sp.with_selection
         ?rank_bands:(knob "rank_bands=" int_of_string)
         ?ci_target:(knob "ci_target=" float_of_string))
  | [] -> Error "no key lines"

(* The plan decoder and constructor never raise; every accepted spec
   keeps the schedule invariants and round-trips through
   [to_string]/[of_string] and through its key lines; and every
   out-of-range knob comes back as [Error]. *)
let prop_plan_decoder =
  QCheck.Test.make ~name:"plan decoder and constructor" ~count:2000
    (QCheck.make
       ~print:(fun (s, k, t) -> Printf.sprintf "%S K=%d target=%h" s k t)
       QCheck.Gen.(triple gen_plan_string gen_rank_bands gen_ci_target))
    (fun (s, rank_bands, ci_target) ->
      let in_range =
        rank_bands >= 1 && rank_bands <= Sp.max_rank_bands
        && Float.is_finite ci_target && ci_target >= 0.
        && float_of_string (Printf.sprintf "%.6f" ci_target) = ci_target
      in
      match Sp.of_string s with
      | Error _ -> true
      | Ok p -> (
        p.Sp.rank_bands = 1 && p.Sp.ci_target = 0.
        (* the schedule invariants hold without overflow *)
        && p.Sp.warmup >= 0 && p.Sp.window >= 1
        && Sp.slack p >= 0 && Sp.slack p <= p.Sp.period
        && Sp.of_string (Sp.to_string p) = Ok p
        &&
        match Sp.with_selection ~rank_bands ~ci_target p with
        | Error _ -> not in_range
        | Ok q ->
          in_range && Sp.to_string q = Sp.to_string p
          && plan_of_key_lines (Sp.key_lines (Some q)) = Ok q))

let () =
  Alcotest.run "bor_sampling"
    [
      ( "sampler",
        [
          Alcotest.test_case "software counter period" `Quick
            test_software_counter_period;
          Alcotest.test_case "software counter phase" `Quick
            test_software_counter_phase;
          Alcotest.test_case "hardware counter" `Quick
            test_hardware_counter_deterministic;
          Alcotest.test_case "brr rate" `Quick test_brr_sampler_rate;
          Alcotest.test_case "paper legend names" `Quick
            test_names_match_paper_legend;
          Alcotest.test_case "expected rates" `Quick test_expected_rate;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counting" `Quick test_profile_counting;
          Alcotest.test_case "top" `Quick test_profile_top;
          Alcotest.test_case "identical profiles" `Quick
            test_accuracy_identical;
          Alcotest.test_case "scaled sample" `Quick test_accuracy_scaled;
          Alcotest.test_case "paper's worked example" `Quick
            test_accuracy_paper_example;
          Alcotest.test_case "empty sample" `Quick test_accuracy_empty_sample;
          Alcotest.test_case "merge" `Quick test_profile_merge;
          qtest prop_accuracy_bounded;
          qtest prop_accuracy_self;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "collect" `Quick test_collect;
          Alcotest.test_case "footnote-7 resonance" `Quick
            test_resonance_detected_by_counters_only;
          Alcotest.test_case "summary over seeds" `Quick test_accuracy_summary;
        ] );
      ( "per-site",
        [
          Alcotest.test_case "independent annealing" `Quick
            test_per_site_anneals_independently;
          Alcotest.test_case "unbiased estimates" `Quick
            test_per_site_estimates_unbiased;
          Alcotest.test_case "tail coverage" `Quick
            test_per_site_budget_beats_global_on_tail;
        ] );
      ( "convergent",
        [
          Alcotest.test_case "anneals when stable" `Quick
            test_convergent_anneals_on_stable_profile;
          Alcotest.test_case "reacts to drift" `Quick
            test_convergent_reacts_to_phase_change;
          Alcotest.test_case "bookkeeping" `Quick test_convergent_bookkeeping;
        ] );
      ( "rank",
        [
          Alcotest.test_case "score ordering" `Quick test_rank_score_ordering;
          Alcotest.test_case "score is per-instruction" `Quick
            test_rank_score_normalized;
          Alcotest.test_case "signature delta" `Quick test_rank_sub;
          Alcotest.test_case "cycling order statistic" `Quick
            test_rank_cycling_order_statistic;
          Alcotest.test_case "seed rotates start" `Quick
            test_rank_seed_rotates_start;
          Alcotest.test_case "arrival-order ties" `Quick
            test_rank_ties_break_by_arrival;
          Alcotest.test_case "partial final set" `Quick
            test_rank_partial_final_set;
          Alcotest.test_case "fewer candidates than bands" `Quick
            test_rank_fewer_candidates_than_bands;
          Alcotest.test_case "bands = 1 identity" `Quick
            test_rank_bands_one_selects_everything;
          Alcotest.test_case "invalid bands" `Quick test_rank_invalid_bands;
        ] );
      ( "stopping",
        [
          Alcotest.test_case "hand-computed CI" `Quick
            test_stopping_hand_computed_ci;
          Alcotest.test_case "Welford matches two-pass" `Quick
            test_stopping_welford_matches_two_pass;
          Alcotest.test_case "stop index on scripted stream" `Quick
            test_stopping_stop_index_on_scripted_stream;
          Alcotest.test_case "min-windows floor" `Quick
            test_stopping_min_windows_floor;
          Alcotest.test_case "zero target never fires" `Quick
            test_stopping_zero_target_never_fires;
          Alcotest.test_case "invalid arguments" `Quick
            test_stopping_invalid_args;
          Alcotest.test_case "ci-target 0 is byte-identical" `Slow
            test_ci_target_zero_is_byte_identical;
          Alcotest.test_case "non-finite ci-target rejected" `Quick
            test_ci_target_non_finite_rejected;
          Alcotest.test_case "ranked stopping is domain-invariant" `Slow
            test_ranked_stopping_domain_invariant;
        ] );
      ("plan", [ qtest prop_plan_decoder ]);
    ]
