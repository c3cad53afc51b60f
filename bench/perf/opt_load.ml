(* The opt workload: [Bor_opt.Search.run] over the known-rewrite corpus
   (test/opt_corpus/*.s), 2 chains on 2 domains, the search seed taken
   from --seed. A search evaluates thousands of candidates: each runs
   through the functional-simulator filter, and only the few hundred
   that pass it pay for a pipeline oracle run ([Pipeline.create] plus a
   short run). The chains are fanned out through [Pool]. A traced run
   measures how the search's time splits between the two
   (search.filter_share, search.oracle_share).

   Throughput is candidates evaluated per second ([Cost.evaluate]:
   the equivalence filter, plus the pipeline oracle when the filter
   passes) over one pass of the targets, each at its best search time
   in the run; latency is the mean over targets of that best
   [Search.run] time. Candidates rather than oracle evaluations,
   because the share of candidates that reach the oracle depends on
   the search seed while a search's cost hardly does. *)

module Search = Bor_opt.Search
module Cost = Bor_opt.Cost
module Gen = Bor_gen.Gen
module Prng = Bor_util.Prng

let targets c =
  let dir = Filename.concat c.Ctx.o.root "test/opt_corpus" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort compare
  in
  let files = if c.o.quick then [ List.hd files ] else files in
  List.map
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      (Filename.chop_suffix f ".s", Bor_isa.Asm.assemble_exn text))
    files

(* Sized so one search takes a few seconds at 2 domains on a 2-core
   host; the quick size only proves the path works. *)
let params c ~domains =
  {
    Search.default_params with
    p_seed = c.Ctx.o.seed;
    p_rounds = (if c.o.quick then 1 else 2);
    p_iters = (if c.o.quick then 40 else 120);
    p_chains = 2;
    p_domains = domains;
  }

let reference_name c name = if c.Ctx.o.quick then name ^ "@quick" else name

let check c name (r : Search.t) =
  let bound =
    if r.r_best_cost <= r.r_target_cost then []
    else
      [
        Printf.sprintf "%s: best cost %d above the target's %d" name r.r_best_cost
          r.r_target_cost;
      ]
  in
  bound
  @ Ctx.check_fields c ~kind:"opt" ~name:(reference_name c name)
      [
        ("best", string_of_int r.r_best_cost);
        ("verified", string_of_bool r.r_verified);
        ("evals", string_of_int r.r_counters.n_oracle_evals);
      ]

let search c ~domains ~root (name, prog) =
  let t0 = Trace.now () in
  let r =
    Trace.span c.Ctx.tr ~req:name root (fun _ -> Search.run (params c ~domains) prog)
  in
  let dt = Trace.now () -. t0 in
  match r with
  | Ok r ->
    Ctx.record c ~op:name (check c name r);
    Some (dt, r)
  | Error e ->
    Ctx.record c ~op:name [ e ];
    None

(* The search replayed on this thread, round by round and chain by
   chain as [Search.run] runs it, with a span around the evaluator's
   creation, each proposal ([Gen]), each candidate evaluation (named
   after what it paid for: the filter alone, or the filter and the
   pipeline oracle) and the final verification. Returns the proposals,
   oracle evaluations, best cost and verdict, which must equal the
   search's. *)
let replay c (name, prog) =
  let tr = c.Ctx.tr and req = name in
  let p = params c ~domains:1 in
  Trace.span tr ~req "search.replay" (fun root ->
      let span n f = Trace.span tr ~parent:root ~req n (fun _ -> f ()) in
      let evaluator ~vectors ~vector_seed ~max_cycles =
        match
          Cost.create ~vectors ~vector_seed ~max_steps:p.p_max_steps ~max_cycles
            ~oracle:p.p_oracle prog
        with
        | Ok ev -> ev
        | Error e -> failwith (name ^ ": " ^ e)
      in
      let ev =
        span "cost.create" (fun () ->
            evaluator ~vectors:p.p_vectors ~vector_seed:p.p_vector_seed
              ~max_cycles:p.p_max_cycles)
      in
      let proposals = ref 0 and oracle = ref 0 in
      let evaluate cand =
        let t0 = Trace.now () in
        let e = Cost.evaluate ev cand in
        let layer = if e.Cost.ev_oracle then "cost.oracle" else "cost.filter" in
        ignore (Trace.add tr ~parent:root ~req layer ~start:t0 ~stop:(Trace.now ()));
        incr proposals;
        if e.ev_oracle then incr oracle;
        e
      in
      let chain ~start ~start_cost seed =
        let rng = Prng.create ~seed in
        let cur = ref start and cur_cost = ref start_cost in
        let best = ref None and best_cost = ref start_cost in
        for _ = 1 to p.p_iters do
          let cand =
            span "gen.move" (fun () ->
                let m = Gen.pick_move rng p.p_rates in
                Gen.apply_move rng m !cur)
          in
          match cand with
          | None -> ()
          | Some cand ->
            let e = evaluate cand in
            if
              Cost.accept rng ~temperature:p.p_temperature ~current:!cur_cost
                ~proposed:e.ev_cost
            then begin
              cur := cand;
              cur_cost := e.ev_cost;
              if e.ev_mismatches = 0 && e.ev_cost < !best_cost then begin
                best := Some cand;
                best_cost := e.ev_cost
              end
            end
        done;
        (!best, !best_cost)
      in
      let master = Prng.create ~seed:p.p_seed in
      let target_cost = Cost.target_cycles ev in
      let best = ref prog and best_cost = ref target_cost in
      for _ = 1 to p.p_rounds do
        let seeds = Array.init p.p_chains (fun _ -> Prng.next master) in
        let start = !best and start_cost = !best_cost in
        Array.iter
          (fun seed ->
            match chain ~start ~start_cost seed with
            | Some b, cost when cost < !best_cost ->
              best := b;
              best_cost := cost
            | _ -> ())
          seeds
      done;
      (* Verification as the search does it: fresh vectors, then the
         six-way differential. *)
      let verified =
        !best_cost < target_cost
        && span "search.verify" (fun () ->
               let fresh =
                 evaluator
                   ~vectors:((3 * p.p_vectors) + 6)
                   ~vector_seed:(p.p_vector_seed + 7919) ~max_cycles:p.p_max_cycles
               in
               (Cost.evaluate fresh !best).ev_mismatches = 0
               && Bor_gen.Diff.run ~max_steps:p.p_max_steps
                    ~max_cycles:(max p.p_max_cycles 20_000_000)
                    !best
                  = Bor_gen.Diff.Pass)
      in
      (!proposals, !oracle, !best_cost, verified))

type result = {
  e2e : (string * float * float list) list;
  layers : (string * float * float list) list;
}

let run c targets ~deadline_after =
  let traced = Trace.enabled c.Ctx.tr in
  let times = Ctx.Samples.create () and times_d1 = Ctx.Samples.create () in
  let rss = Ctx.Samples.create () in
  let counters = Hashtbl.create 8 in
  let loop_start = Trace.now () in
  let op ((name, _) as t) =
    Ctx.gc c;
    match Ctx.with_peak_rss (fun () -> search c ~domains:2 ~root:"search.run" t) with
    | None, _ -> ()
    | Some (dt, r), peak ->
      Ctx.Samples.add times name dt;
      Ctx.Samples.add rss name peak;
      Hashtbl.replace counters name r.Search.r_counters;
      if traced then begin
        (* Pool scaling: the same search on one domain. *)
        Ctx.gc c;
        (match search c ~domains:1 ~root:"search.run.d1" t with
        | Some (dt, _) -> Ctx.Samples.add times_d1 name dt
        | None -> ());
        Ctx.gc c;
        let proposals, oracle, best, verified = replay c t in
        Ctx.record c ~op:(name ^ " (replay)")
          (if
             proposals = r.r_counters.Search.n_proposals
             && oracle = r.r_counters.Search.n_oracle_evals
             && best = r.r_best_cost && verified = r.r_verified
           then []
           else [ name ^ ": search replay differs from the search" ])
      end
  in
  Ctx.cycle c ~deadline:(loop_start +. deadline_after) targets op;
  let loop_wall = Trace.now () -. loop_start in
  let names = Ctx.Samples.keys times in
  let pass samples =
    List.fold_left (fun a n -> a +. Ctx.Samples.best samples n) 0. names
  in
  let total f =
    List.fold_left (fun a n -> a + f (Hashtbl.find counters n)) 0 names
  in
  let proposals = total (fun k -> k.Search.n_proposals) in
  let pass_time = pass times in
  let e2e =
    [
      ( "throughput",
        float_of_int proposals /. pass_time,
        List.concat_map
          (fun n ->
            let p = (Hashtbl.find counters n).Search.n_proposals in
            List.map (fun t -> float_of_int p /. t) (Ctx.Samples.get times n))
          names );
      ( "latency_ms",
        pass_time /. float_of_int (List.length names) *. 1000.,
        List.map (fun t -> t *. 1000.) (Ctx.Samples.all times) );
      ("peak_rss_mb", Ctx.Samples.max_median rss, Ctx.Samples.all rss);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let l = Ctx.Layers.of_trace ~since:loop_start ~root:"search.replay" c.tr in
      (* The traced wall leaves out the untraced searches the loop times
         and the benchmark's own collections. *)
      let traced_wall =
        loop_wall
        -. Ctx.Layers.duration l (fun s ->
               Ctx.Layers.is_bench s
               || s.Trace.name = "search.run" || s.Trace.name = "search.run.d1")
      in
      let replay_s = Ctx.Layers.duration l (fun s -> s.Trace.name = "search.replay") in
      let share layer =
        if replay_s = 0. then 0. else Ctx.Layers.total l layer /. replay_s
      in
      (* Pipeline creation on the first target, after the timed loop. *)
      let _, prog = List.hd targets in
      for _ = 1 to 20 do
        ignore
          (Trace.span c.tr "pipeline.create" (fun _ -> Bor_uarch.Pipeline.create prog))
      done;
      let u = Ctx.Layers.of_trace ~root:"pipeline.create" c.tr in
      [
        ("pipeline.create_us", Ctx.Layers.mean u "pipeline.create" *. 1e6, []);
        ("cost.filter_us", Ctx.Layers.mean l "cost.filter" *. 1e6, []);
        ("cost.oracle_us", Ctx.Layers.mean l "cost.oracle" *. 1e6, []);
        ("search.filter_share", share "cost.filter", []);
        ("search.oracle_share", share "cost.oracle", []);
        ("pool.scaling", pass times_d1 /. pass_time, []);
        ("search.evals", float_of_int (total (fun k -> k.Search.n_oracle_evals)), []);
        ("trace.coverage_pct", 100. *. Ctx.Layers.covered l /. traced_wall, []);
      ]
    end
  in
  { e2e; layers }
