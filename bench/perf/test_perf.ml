(* Unit tests for the benchmark's own arithmetic: the percentile rule
   and quartiles, span self time, the result JSON, the compare
   verdicts, and that BENCHMARK.json lists the metrics the runs print.
   Takes the path of BENCHMARK.json as its only argument. *)

let check = Alcotest.check
let close = Alcotest.float 1e-12

let test_quartiles () =
  (* Reference values from Python's statistics.quantiles(data, n=4). *)
  let q xs =
    let a, b, c = Stats.quartiles xs in
    [ a; b; c ]
  in
  check (Alcotest.list close) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check (Alcotest.list close) "two points" [ 0.75; 1.5; 2.25 ] (q [ 1.; 2. ]);
  check (Alcotest.list close) "three points" [ 1.; 2.; 3. ] (q [ 3.; 1.; 2. ]);
  check (Alcotest.list close) "unsorted seven" [ 2.; 4.; 7. ]
    (q [ 5.; 1.; 4.; 2.; 3.; 9.; 7. ]);
  check close "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_percentile_rule () =
  let p = Alcotest.(option (float 0.)) in
  check p "19 samples: nothing beyond the median" None (Stats.tail_percentile 19);
  check p "20 samples: median" (Some 50.) (Stats.tail_percentile 20);
  check p "100 samples: p90" (Some 90.) (Stats.tail_percentile 100);
  check p "2000 samples: p99" (Some 99.) (Stats.tail_percentile 2000);
  check p "9999 samples: still p99" (Some 99.) (Stats.tail_percentile 9999);
  check p "10000 samples: p99.9" (Some 99.9) (Stats.tail_percentile 10000);
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check close "nearest-rank p90 of 1..100" 90. (Stats.percentile xs 90.);
  check close "nearest-rank p99 of 1..100" 99. (Stats.percentile xs 99.)

let test_self_time () =
  (* root [0,10] has children a [1,4] and b [3,6] (overlapping: the
     root loses their union, 5), a has child g [2,3]. *)
  let t = Trace.create ~enabled:true in
  let root = Trace.add t "root" ~start:0. ~stop:10. in
  let a = Trace.add t ~parent:root "a" ~start:1. ~stop:4. in
  ignore (Trace.add t ~parent:root "b" ~start:3. ~stop:6.);
  ignore (Trace.add t ~parent:a "g" ~start:2. ~stop:3.);
  let selfs =
    List.map (fun (s, x) -> (s.Trace.name, x)) (Trace.self_times (Trace.spans t))
  in
  check close "root" 5. (List.assoc "root" selfs);
  check close "a" 2. (List.assoc "a" selfs);
  check close "b" 3. (List.assoc "b" selfs);
  check close "g" 1. (List.assoc "g" selfs);
  (* Siblings that overlap ran in parallel: each keeps its own time, so
     the sum exceeds the root's 10 by the 1 they share. *)
  check close "self times sum" 11.
    (List.fold_left (fun acc (_, x) -> acc +. x) 0. selfs);
  let off = Trace.create ~enabled:false in
  check Alcotest.int "disabled trace runs the body" 7 (Trace.span off "x" (fun _ -> 7));
  check Alcotest.int "and records nothing" 0 (List.length (Trace.spans off))

let sample_report =
  {
    Report.workload = "sampled";
    seed = 3;
    traced = false;
    correct = true;
    attempted = 41;
    failed = 0;
    metrics =
      [
        { Report.name = "throughput"; unit_ = "op/s"; value = 0.1; samples = [ 1e-7; 123456789.123; 2. ] };
        { Report.name = "setup_s"; unit_ = "s"; value = 0.012345678901234567; samples = [] };
      ];
  }

let test_result_json () =
  (match Report.of_record (Report.to_record sample_report) with
  | Ok r -> check Alcotest.bool "record round trip" true (r = sample_report)
  | Error e -> Alcotest.fail e);
  let line = Pjson.of_string (Report.result_line sample_report) in
  (match line with
  | Pjson.Obj fields ->
    check (Alcotest.list Alcotest.string) "result line keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "result line is not an object");
  check Alcotest.string "strings escape" {|"a\"b\\c\n"|}
    (Pjson.to_string (Pjson.Str "a\"b\\c\n"));
  check Alcotest.bool "parser accepts escapes and exponents" true
    (Pjson.of_string {| {"k": ["é", -1.5e3, true, null]} |}
    = Pjson.Obj
        [ ("k", Pjson.Arr [ Pjson.Str "\xc3\xa9"; Pjson.Num (-1500.); Pjson.Bool true; Pjson.Null ]) ])

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let test_compare () =
  let parent = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  let scale k = List.map (fun x -> x *. k) parent in
  let judge ?(bound = Some 0.1) dir change =
    (Compare.judge dir ~bound ~parent ~change).Compare.verdict
  in
  check verdict "20% more throughput is better" Compare.Better
    (judge Compare.Higher (scale 1.2));
  check verdict "20% less throughput is worse" Compare.Worse
    (judge Compare.Higher (scale 0.8));
  check verdict "20% more latency is worse" Compare.Worse
    (judge Compare.Lower (scale 1.2));
  check verdict "2% less throughput is within the bound" Compare.Unchanged
    (judge Compare.Higher (scale 0.98));
  check verdict "same runs are unchanged" Compare.Unchanged
    (judge Compare.Higher parent);
  (* Faster on average but winning only 8 of 10 pairs: not a gain. *)
  let mixed = List.mapi (fun i x -> if i < 2 then x *. 0.99 else x *. 1.05) parent in
  check verdict "8 of 10 wins is not better" Compare.Unchanged
    (judge Compare.Higher mixed);
  let noisy = [ 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. ] in
  check verdict "spread wider than the bound is unresolved" Compare.Unresolved
    (Compare.judge Compare.Higher ~bound:(Some 0.1) ~parent:noisy
       ~change:(List.map (fun x -> x *. 0.97) noisy))
      .verdict;
  (* A noisy parent does not hide a loss larger than the bound. *)
  check verdict "noisy parent, 50% less throughput is worse" Compare.Worse
    (Compare.judge Compare.Higher ~bound:(Some 0.1) ~parent:noisy
       ~change:(List.map (fun x -> x *. 0.5) noisy))
      .verdict;
  check verdict "no bound: a clear loss is worse" Compare.Worse
    (judge ~bound:None Compare.Lower (scale 1.5))

let test_benchmark_json path () =
  let j = Pjson.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let names key =
    match Pjson.member key j with
    | Some (Pjson.Arr l) ->
      List.map
        (fun m ->
          ( Option.get (Pjson.to_str (Pjson.member "name" m)),
            Option.get (Pjson.to_str (Pjson.member "unit" m)),
            Pjson.to_str (Pjson.member "better" m) = Some "higher",
            Pjson.to_num (Pjson.member "bound" m) ))
        l
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
  in
  let of_specs =
    List.map (fun (s : Metrics.spec) -> (s.name, s.unit_, s.higher_is_better, s.bound))
  in
  let t = Alcotest.(list (pair string (pair string (pair bool (option (float 0.)))))) in
  let nest = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  check t "end-to-end metrics" (nest (of_specs Metrics.end_to_end)) (nest (names "end_to_end"));
  check t "per-layer metrics" (nest (of_specs Metrics.per_layer)) (nest (names "per_layer"))

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
        ] );
      ("trace", [ Alcotest.test_case "self time on nested spans" `Quick test_self_time ]);
      ("report", [ Alcotest.test_case "result JSON round trip" `Quick test_result_json ]);
      ("compare", [ Alcotest.test_case "verdicts on hand-made vectors" `Quick test_compare ]);
      ( "benchmark",
        [ Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick (test_benchmark_json path) ] );
    ]
