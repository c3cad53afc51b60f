(* bor: command-line front end to the BRISC toolchain.

     bor asm FILE.s          assemble and print a listing
     bor run FILE.s          assemble and run on the functional simulator
     bor time FILE.s         assemble and run on the timing simulator
     bor cc FILE.c           compile minic and print the assembly
     bor ccrun FILE.c        compile minic and run functionally
     bor cctime FILE.c       compile minic and run on the timing simulator
     bor checkpoint save FILE --at N -o OUT.ckpt
                             warm N instructions, save a resumable checkpoint
     bor checkpoint resume FILE --from CKPT
                             restore a checkpoint and simulate in detail
     bor fuzz [SEED-FILES]   coverage-guided differential fuzzing
     bor opt FILE...         STOKE-style stochastic superoptimization
     bor serve --socket S    simulation service with a content-addressed cache
     bor submit --socket S FILE
                             submit a job to a running server
     bor digest FILE         print a job's cache key (content address)

   Compilation options: --framework none|full|cbs|brr, --interval N,
   --fulldup, --edges, --empty-payload.

   Timing-run options: --stats[=json] prints the telemetry registry
   (per-stage pipeline, cache, predictor, BTB, RAS and LFSR-engine
   counters — the schema is documented in docs/TELEMETRY.md) after the
   run, as text or as one JSON object. --sample W:D:P[:SEED] switches
   the timing run to SMARTS-style sampled simulation (functional
   warming plus periodic detailed windows of D instructions after a W
   warmup, every P instructions, optional random window phase).
   --domains N runs the detailed windows of a sampled run on N OCaml
   domains (the sweep thread and N-1 workers sharing one window queue)
   — results and telemetry are byte-identical to --domains 1.
   --rank-bands K switches window selection to ranked sets: every K
   consecutive candidate boundaries are scored by a cheap warming
   signature and contribute one detailed window (~K-fold fewer
   windows). --ci-target PCT stops dispatching windows once the 95%
   confidence half-width of the CPI estimate drops below PCT% of the
   mean. Both are deterministic at any --domains (docs/SAMPLING.md).
   --sanitize enables the pipeline sanitizer (dynamic invariant
   checking, docs/FUZZING.md) for the run; BOR_SANITIZE=1 does the
   same for any command.

   All timing commands route through Bor_exec.Backend, the same
   execution surface the bench driver, the fuzzer and the QCheck suite
   use; checkpoints are the versioned digest-stamped Bor_exec.Checkpoint
   format (DESIGN.md).

   bor fuzz mutates random/seeded BRISC programs (and minic sources,
   for .c seed files) through the ten-way differential property with
   the sanitizer on, guided by telemetry coverage; failures are
   auto-shrunk and written to the corpus directory. Options: --iters N,
   --seed N, --corpus DIR (default test/corpus), --max-cycles N.

   bor serve runs the job server of docs/SERVE.md on a Unix-domain
   socket: submissions are deduped by content address (bor digest
   prints it), fanned across a domain worker pool (--domains N), and
   memoized in an on-disk store (--store DIR [--cache-max-bytes N]).
   bor submit is the matching client: it assembles FILE, submits it
   with --backend/--sample/--rank-bands/--ci-target, and with --wait
   blocks and prints the deterministic result payload on stdout (key,
   disposition and source go to stderr, so payloads can be compared
   byte-for-byte). bor submit --shutdown / --stats drive a running
   server without submitting. *)

type stats_mode = Stats_off | Stats_text | Stats_json

type cc_options = {
  mutable framework : string;
  mutable interval : int;
  mutable fulldup : bool;
  mutable edges : bool;
  mutable yieldpoints : bool;
  mutable empty_payload : bool;
  mutable output : string option;
  mutable trace : int;  (* print the first N executed instructions *)
  mutable dot : bool;
  mutable stats : stats_mode;
  mutable domains : int;
}

let default_options () =
  {
    framework = "none";
    interval = 1024;
    fulldup = false;
    edges = false;
    yieldpoints = false;
    empty_payload = false;
    output = None;
    trace = 0;
    dot = false;
    stats = Stats_off;
    domains = 1;
  }

let usage () =
  prerr_endline
    "usage: bor {asm|run|time|cc|ccrun|cctime} FILE [-o OUT.bor] [--trace N] [--framework \
     none|full|cbs|brr] [--interval N] [--fulldup] [--edges] [--yieldpoints] \
     [--empty-payload] [--stats[=json]] [--sanitize] [--sample W:D:P[:SEED]] \
     [--domains N] [--rank-bands K] [--ci-target PCT]\n\
     \       bor checkpoint save FILE --at N -o OUT.ckpt [--sanitize]\n\
     \       bor checkpoint resume FILE --from CKPT [--stats[=json]] [--max-cycles N] [--sanitize]\n\
     \       bor fuzz [SEED-FILES] [--iters N] [--seed N] [--corpus DIR] [--max-cycles N]\n\
     \       bor opt FILE... [--seed N] [--rounds N] [--iters N] [--chains N] [--domains N]\n\
     \               [--temp F] [--vectors K] [--sample W:D:P[:SEED]] [-o DIR] [--json FILE]\n\
     \       bor serve --socket PATH [--metrics-socket PATH] [--domains N] \
     [--store DIR [--cache-max-bytes N]] [--stats[=json]] [--sanitize]\n\
     \       bor submit --socket PATH FILE [--backend NAME] [--sample W:D:P[:SEED]] \
     [--rank-bands K] [--ci-target PCT] [--wait] | --stats | --shutdown\n\
     \       bor digest FILE [--backend NAME] [--sample W:D:P[:SEED]] \
     [--rank-bands K] [--ci-target PCT] [--explain]\n\
     FILE may be assembly (.s), minic (.c for cc*) or a BOR1 object image";
  exit 2

let sample_usage v e =
  Printf.eprintf
    "bor: --sample %s: %s\n\
     usage: --sample WARMUP:WINDOW:PERIOD[:SEED]\n\
    \  WARMUP  detailed-warmup instructions per window (>= 0, not measured)\n\
    \  WINDOW  measured detailed instructions per window (>= 1)\n\
    \  PERIOD  instructions between window starts (>= WARMUP + WINDOW)\n\
    \  SEED    optional random window phase (>= 0)\n\
     example: --sample 2000:1000:100000\n"
    v e;
  exit 2

let refuse e = prerr_endline ("bor: " ^ e); exit 2

(* Every numeric flag value parses through these two: a malformed or
   out-of-range one prints the flag, the value and what was expected,
   and exits 2 — never an uncaught [Failure]. *)
let bad_flag flag v expected =
  refuse (Printf.sprintf "%s %s: expected %s" flag v expected)

let int_flag ?(min = min_int) ?(max = max_int) flag v =
  match int_of_string_opt v with
  | Some n when n >= min && n <= max -> n
  | _ ->
    bad_flag flag v
      (match (min, max) with
      | _, m when m < max_int -> Printf.sprintf "an integer from %d to %d" min m
      | 0, _ -> "a non-negative integer"
      | 1, _ -> "a positive integer"
      | _ -> "an integer")

(* --domains for time/cctime, opt and serve: the calling domain plus
   the pool's worker cap. The runtime itself stops at 128 domains with
   an uncaught [Failure], so larger values are refused here, before
   anything runs. *)
let max_domains = Bor_exec.Pool.max_workers + 1

let domains_flag v = int_flag ~min:1 ~max:max_domains "--domains" v

let float_flag flag v =
  match float_of_string_opt v with
  | Some x when Float.is_finite x -> x
  | _ -> bad_flag flag v "a finite number"

let plan_flag v =
  match Bor_uarch.Sampling_plan.of_string v with
  | Ok plan -> plan
  | Error e -> sample_usage v e

(* --sample, --rank-bands and --ci-target, in any order, for time/cctime,
   submit and digest: [sampling_flag] collects them, and once parsing is
   done [sampling_plan] builds the one plan from the last of each. *)
let sampling_flag flags = function
  | (("--sample" | "--rank-bands" | "--ci-target") as f) :: v :: r ->
    flags := (f, v) :: !flags;
    Some r
  | _ -> None

let sampling_plan flags =
  let knob f parse = Option.map (parse f) (List.assoc_opt f flags) in
  let rank_bands = knob "--rank-bands" int_flag
  and ci_target = knob "--ci-target" float_flag in
  match List.assoc_opt "--sample" flags with
  | None when rank_bands <> None || ci_target <> None ->
    refuse "--rank-bands/--ci-target require --sample W:D:P[:SEED]"
  | None -> None
  | Some v -> (
    let p = plan_flag v in
    match Bor_uarch.Sampling_plan.with_selection ?rank_bands ?ci_target p with
    | Ok plan -> Some plan
    | Error e -> refuse e)

let read_file = Bor_isa.Toolchain.read_file

(* Accept both assembly source and BOR1 object images. *)
let assemble path =
  match Bor_isa.Toolchain.load_program_file path with
  | Ok p -> p
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 1

(* Building a backend loads the program into simulated memory, which
   faults on an image whose data lies past it: report that like a
   failed run, not with an uncaught exception. *)
let build make =
  match Bor_uarch.Pipeline.guard (fun () -> Ok (make ())) with
  | Ok b -> b
  | Error e ->
    prerr_endline ("bor: " ^ e);
    exit 1

let driver_config opts =
  let check =
    match opts.framework with
    | "cbs" -> Some (Bor_minic.Instrument.Counter opts.interval)
    | "brr" ->
      Some (Bor_minic.Instrument.Brr (Bor_core.Freq.of_period opts.interval))
    | "none" | "full" -> None
    | other ->
      Printf.eprintf "unknown framework %s\n" other;
      exit 2
  in
  let framework =
    match (opts.framework, check) with
    | "none", _ -> Bor_minic.Instrument.No_instrumentation
    | "full", _ -> Bor_minic.Instrument.Full
    | _, Some check ->
      Bor_minic.Instrument.Sampled
        ( check,
          if opts.fulldup then Bor_minic.Instrument.Full_duplication
          else Bor_minic.Instrument.No_duplication )
    | _, None -> assert false
  in
  Bor_minic.Driver.config
    ~placement:
      (if opts.edges then Bor_minic.Instrument.Cond_edges
       else if opts.yieldpoints then Bor_minic.Instrument.Yieldpoints
       else Bor_minic.Instrument.Method_entry)
    ~payload:
      (if opts.empty_payload then Bor_minic.Instrument.Empty_payload
       else Bor_minic.Instrument.Profile_count)
    framework

let compile opts path =
  match Bor_minic.Driver.compile ~cfg:(driver_config opts) (read_file path) with
  | Ok c -> c
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 1

let run_functional ?(trace = 0) (program : Bor_isa.Program.t) =
  let b = build (fun () -> Bor_exec.Backend.functional program) in
  let m = b.Bor_exec.Backend.machine () in
  for _ = 1 to trace do
    if not (Bor_sim.Machine.halted m) then begin
      let pc = Bor_sim.Machine.pc m in
      (match Bor_isa.Program.instr_at program pc with
      | Some i -> Printf.printf "  0x%05x  %s\n" pc (Bor_isa.Instr.to_string i)
      | None -> Printf.printf "  0x%05x  <illegal-encoded>\n" pc);
      Bor_sim.Machine.step m
    end
  done;
  (match b.Bor_exec.Backend.run () with
  | Ok _ ->
    Printf.printf "halted after %d instructions\n"
      (Bor_sim.Machine.stats m).instructions
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 1);
  let st = Bor_sim.Machine.stats m in
  Printf.printf
    "a0 = %d\nloads %d, stores %d, cond branches %d (%d taken)\n\
     branch-on-random %d executed, %d taken\n"
    (Bor_sim.Machine.reg m (Bor_isa.Reg.a 0))
    st.loads st.stores st.cond_branches st.cond_taken st.brr_executed
    st.brr_taken

let print_registry = function
  | Stats_off -> ()
  | Stats_text -> Format.printf "@.%a@." Bor_telemetry.Telemetry.pp ()
  | Stats_json ->
    print_string
      (Bor_telemetry.Json.to_string (Bor_telemetry.Telemetry.to_json ()))

let run_timing opts plan (program : Bor_isa.Program.t) =
  let stats = opts.stats in
  (* Telemetry must be live before the backend is created: instruments
     register at component-creation time. *)
  if stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
  let backend =
    build (fun () ->
        match plan with
        | Some plan ->
          Bor_exec.Backend.sampled ~plan ~domains:opts.domains program
        | None -> Bor_exec.Backend.detailed program)
  in
  let t0 = Unix.gettimeofday () in
  match backend.Bor_exec.Backend.run () with
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 1
  | Ok report ->
    let dt = Unix.gettimeofday () -. t0 in
    (match report with
    | Bor_exec.Backend.Sampled st ->
      Format.printf "%a@." Bor_exec.Sampled.pp st;
      if dt > 0. then
        Format.printf "host: %.3fs wall, %.2f M instr/s@." dt
          (Float.of_int st.Bor_exec.Sampled.sp_instructions /. dt /. 1e6)
    | Bor_exec.Backend.Detailed st ->
      Format.printf "%a@." Bor_uarch.Pipeline.pp_stats st;
      if dt > 0. then
        Format.printf "host: %.3fs wall, %.2f M instr/s, %.2f M cycles/s@." dt
          (Float.of_int st.Bor_uarch.Pipeline.instructions /. dt /. 1e6)
          (Float.of_int st.Bor_uarch.Pipeline.cycles /. dt /. 1e6)
    | Bor_exec.Backend.Functional _ | Bor_exec.Backend.Warmed _ -> ());
    print_registry stats

(* bor checkpoint save/resume: every failure — unreadable file, bad
   magic, digest or version mismatch, wrong program — prints a
   diagnostic and exits 1; no exception escapes. *)
let run_checkpoint rest =
  let ck_usage () =
    prerr_endline
      "usage: bor checkpoint save FILE --at N -o OUT.ckpt [--sanitize]\n\
       \       bor checkpoint resume FILE --from CKPT [--stats[=json]] \
       [--max-cycles N] [--sanitize]";
    exit 2
  in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "bor: checkpoint: %s\n" s;
        exit 1)
      fmt
  in
  match rest with
  | "save" :: path :: opts ->
    let at = ref (-1) and out = ref None in
    let rec parse = function
      | [] -> ()
      | "--at" :: v :: r ->
        at := int_flag ~min:0 "--at" v;
        parse r
      | "-o" :: v :: r ->
        out := Some v;
        parse r
      | "--sanitize" :: r ->
        Bor_check.Check.set_enabled true;
        parse r
      | _ -> ck_usage ()
    in
    parse opts;
    if !at < 0 then ck_usage ();
    let out = match !out with Some o -> o | None -> ck_usage () in
    let prog = assemble path in
    let b = build (fun () -> Bor_exec.Backend.warming ~max_steps:!at prog) in
    let warmed =
      match b.Bor_exec.Backend.run () with
      | Ok (Bor_exec.Backend.Warmed { instructions }) -> instructions
      | Ok _ -> 0
      | Error e -> fail "%s" e
    in
    let p =
      match b.Bor_exec.Backend.pipeline with
      | Some p -> p
      | None -> assert false
    in
    let ck =
      Bor_exec.Checkpoint.capture
        ~program_digest:(Bor_exec.Checkpoint.program_digest prog)
        p
    in
    (match Bor_exec.Checkpoint.save_file out ck with
    | Error e -> fail "%s" e
    | Ok () ->
      Printf.printf
        "wrote %s: checkpoint v%d at pc 0x%05x after %d warmed instructions \
         (%d memory pages)\n"
        out Bor_exec.Checkpoint.version
        ck.Bor_exec.Checkpoint.ck_arch.Bor_sim.Machine.a_pc warmed
        (Bor_sim.Memory.snapshot_pages ck.Bor_exec.Checkpoint.ck_mem
        |> Array.length))
  | "resume" :: path :: opts ->
    let from = ref None and stats = ref Stats_off and max_cycles = ref None in
    let rec parse = function
      | [] -> ()
      | "--from" :: v :: r ->
        from := Some v;
        parse r
      | "--stats" :: r ->
        stats := Stats_text;
        parse r
      | "--stats=json" :: r ->
        stats := Stats_json;
        parse r
      | "--max-cycles" :: v :: r ->
        max_cycles := Some (int_flag "--max-cycles" v);
        parse r
      | "--sanitize" :: r ->
        Bor_check.Check.set_enabled true;
        parse r
      | _ -> ck_usage ()
    in
    parse opts;
    let from = match !from with Some f -> f | None -> ck_usage () in
    if !stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
    let prog = assemble path in
    (match Bor_exec.Checkpoint.load_file from with
    | Error e -> fail "%s" e
    | Ok ck -> (
      match
        Bor_uarch.Pipeline.guard (fun () ->
            Bor_exec.Backend.resume ?max_cycles:!max_cycles ck prog)
      with
      | Error e -> fail "%s" e
      | Ok b -> (
        match b.Bor_exec.Backend.run () with
        | Error e -> fail "%s" e
        | Ok (Bor_exec.Backend.Detailed st) ->
          Format.printf "%a@." Bor_uarch.Pipeline.pp_stats st;
          print_registry !stats
        | Ok _ -> ())))
  | _ -> ck_usage ()

(* bor fuzz: no mandatory positional FILE — any number of seed files
   (.c compiles as minic; anything else loads as assembly/object). *)
let run_fuzz rest =
  let iters = ref 200
  and seed = ref 1
  and corpus = ref "test/corpus"
  and max_cycles = ref 20_000_000
  and seeds = ref [] in
  let rec parse = function
    | [] -> ()
    | "--iters" :: v :: r ->
      iters := int_flag "--iters" v;
      parse r
    | "--seed" :: v :: r ->
      seed := int_flag "--seed" v;
      parse r
    | "--corpus" :: v :: r ->
      corpus := v;
      parse r
    | "--max-cycles" :: v :: r ->
      max_cycles := int_flag "--max-cycles" v;
      parse r
    | f :: r when String.length f > 0 && f.[0] <> '-' ->
      seeds := f :: !seeds;
      parse r
    | _ -> usage ()
  in
  parse rest;
  let seeds = List.rev !seeds in
  let minic_sources =
    List.filter_map
      (fun f -> if Filename.check_suffix f ".c" then Some (read_file f) else None)
      seeds
  in
  let programs =
    List.filter_map
      (fun f -> if Filename.check_suffix f ".c" then None else Some (assemble f))
      seeds
  in
  let report =
    Bor_gen.Fuzz.run ~iters:!iters ~seed:!seed ~corpus_dir:!corpus
      ~minic_sources ~programs ~max_cycles:!max_cycles ~log:print_endline ()
  in
  Format.printf "%a@." Bor_gen.Fuzz.pp_report report;
  if report.Bor_gen.Fuzz.crashes <> [] then exit 1

(* bor opt: STOKE-style stochastic superoptimization (docs/OPT.md).
   Each target (.s/.bor assembles, .c compiles as minic) gets a
   seeded Metropolis–Hastings search; verified rewrites are written as
   .s files (-o DIR) and a machine-readable rewrite table (--json). *)
let run_opt rest =
  let opt_usage () =
    prerr_endline
      "usage: bor opt FILE... [--seed N] [--rounds N] [--iters N] [--chains N] \
       [--domains N]\n\
       \               [--temp F] [--vectors K] [--sample W:D:P[:SEED]] \
       [-o DIR] [--json FILE]\n\
       \               [--progress] [--stats[=json]] [--sanitize]";
    exit 2
  in
  let p = ref Bor_opt.Search.default_params
  and out_dir = ref None
  and json_out = ref None
  and progress = ref false
  and stats = ref Stats_off
  and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: r ->
      p := { !p with Bor_opt.Search.p_seed = int_flag "--seed" v };
      parse r
    | "--rounds" :: v :: r ->
      p := { !p with Bor_opt.Search.p_rounds = int_flag ~min:1 "--rounds" v };
      parse r
    | "--iters" :: v :: r ->
      p := { !p with Bor_opt.Search.p_iters = int_flag ~min:1 "--iters" v };
      parse r
    | "--chains" :: v :: r ->
      p := { !p with Bor_opt.Search.p_chains = int_flag ~min:1 "--chains" v };
      parse r
    | "--domains" :: v :: r ->
      p :=
        { !p with Bor_opt.Search.p_domains = domains_flag v };
      parse r
    | "--vectors" :: v :: r ->
      p :=
        { !p with Bor_opt.Search.p_vectors = int_flag ~min:1 "--vectors" v };
      parse r
    | "--temp" :: v :: r ->
      p :=
        { !p with Bor_opt.Search.p_temperature = float_flag "--temp" v };
      parse r
    | "--sample" :: v :: r ->
      p :=
        {
          !p with
          Bor_opt.Search.p_oracle = Bor_opt.Cost.Sampled (plan_flag v);
        };
      parse r
    | "-o" :: v :: r ->
      out_dir := Some v;
      parse r
    | "--json" :: v :: r ->
      json_out := Some v;
      parse r
    | "--progress" :: r ->
      progress := true;
      parse r
    | "--stats" :: r ->
      stats := Stats_text;
      parse r
    | "--stats=json" :: r ->
      stats := Stats_json;
      parse r
    | "--sanitize" :: r ->
      Bor_check.Check.set_enabled true;
      parse r
    | f :: r when String.length f > 0 && f.[0] <> '-' ->
      files := f :: !files;
      parse r
    | _ -> opt_usage ()
  in
  parse rest;
  let files = List.rev !files in
  if files = [] then opt_usage ();
  if !stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
  let failed = ref false in
  let reports =
    List.map
      (fun file ->
        let prog =
          if Filename.check_suffix file ".c" then
            (compile (default_options ()) file).Bor_minic.Driver.program
          else assemble file
        in
        let progress_fn =
          if !progress then
            Some
              (fun ~round ~best ->
                Printf.eprintf "bor opt: %s: round %d, best cost %d\n%!" file
                  round best)
          else None
        in
        match Bor_opt.Search.run ?progress:progress_fn !p prog with
        | Error e ->
          Printf.eprintf "bor opt: %s: %s\n" file e;
          failed := true;
          (file, None)
        | Ok r ->
          let open Bor_opt.Search in
          if r.r_verified then begin
            Printf.printf
              "bor opt: %s: verified rewrite, cost %d -> %d (%d -> %d \
               instructions)\n"
              file r.r_target_cost r.r_best_cost
              (Bor_isa.Program.instr_count r.r_target)
              (Bor_isa.Program.instr_count r.r_best);
            match !out_dir with
            | None -> ()
            | Some dir ->
              let name =
                Filename.remove_extension (Filename.basename file) ^ "_opt"
              in
              let path =
                try
                  Bor_gen.Corpus.write ~dir ~name ~tool:"bor opt"
                    ~seed:!p.p_seed
                    ~note:
                      (Printf.sprintf "bor opt rewrite of %s: cost %d -> %d"
                         file r.r_target_cost r.r_best_cost)
                    r.r_best
                with Sys_error e ->
                  prerr_endline ("bor: opt: " ^ e);
                  exit 1
              in
              Printf.printf "bor opt: wrote %s\n" path
          end
          else if r.r_improved then
            Printf.printf
              "bor opt: %s: candidate at cost %d failed verification (%s), \
               keeping target (cost %d)\n"
              file r.r_best_cost r.r_note r.r_target_cost
          else
            Printf.printf "bor opt: %s: no rewrite found (cost %d)\n" file
              r.r_target_cost;
          (file, Some r))
      files
  in
  (match !json_out with
  | None -> ()
  | Some path ->
    let entries =
      List.filter_map
        (fun (file, r) ->
          Option.map
            (fun r ->
              match Bor_opt.Search.report_json r with
              | Bor_telemetry.Json.Obj fields ->
                Bor_telemetry.Json.Obj
                  (("target", Bor_telemetry.Json.String file) :: fields)
              | j -> j)
            r)
        reports
    in
    let doc =
      Bor_telemetry.Json.Obj
        [
          ("schema", Bor_telemetry.Json.String "bor-opt-rewrites-v1");
          ("rewrites", Bor_telemetry.Json.List entries);
        ]
    in
    let oc = open_out path in
    output_string oc (Bor_telemetry.Json.to_string doc);
    close_out oc;
    Printf.printf "bor opt: wrote %s\n" path);
  print_registry !stats;
  if !failed then exit 1

(* bor serve: the docs/SERVE.md job server. Runs until a client sends
   a shutdown request; the final counter line makes smoke tests and
   operators see cache behavior without parsing JSON. *)
let run_serve rest =
  let socket = ref None
  and metrics_socket = ref None
  and domains =
    ref (max 1 (min max_domains (Domain.recommended_domain_count () - 1)))
  and store_dir = ref None
  and cache_max = ref None
  and stats = ref Stats_off in
  let rec parse = function
    | [] -> ()
    | "--socket" :: v :: r ->
      socket := Some v;
      parse r
    | "--metrics-socket" :: v :: r ->
      metrics_socket := Some v;
      parse r
    | "--domains" :: v :: r ->
      domains := domains_flag v;
      parse r
    | "--store" :: v :: r ->
      store_dir := Some v;
      parse r
    | "--cache-max-bytes" :: v :: r ->
      cache_max := Some (int_flag ~min:1 "--cache-max-bytes" v);
      parse r
    | "--stats" :: r ->
      stats := Stats_text;
      parse r
    | "--stats=json" :: r ->
      stats := Stats_json;
      parse r
    | "--sanitize" :: r ->
      Bor_check.Check.set_enabled true;
      parse r
    | _ -> usage ()
  in
  parse rest;
  let socket = match !socket with Some s -> s | None -> usage () in
  (* Telemetry before the scheduler: the serve.* instruments register
     at scheduler creation. *)
  if !stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
  let store =
    match !store_dir with
    | None -> None
    | Some dir -> (
      match Bor_store.Store.create ?max_bytes:!cache_max dir with
      | Ok s -> Some s
      | Error e ->
        Printf.eprintf "bor: %s\n" e;
        exit 1)
  in
  let sched = Bor_serve.Scheduler.create ~domains:!domains ?store () in
  Printf.eprintf "bor serve: listening on %s (%d worker%s%s)\n%!" socket
    !domains
    (if !domains = 1 then "" else "s")
    (match !store_dir with
    | None -> ", no store"
    | Some d -> Printf.sprintf ", store %s" d);
  match Bor_serve.Server.run ~socket ?metrics_socket:!metrics_socket sched with
  | Error e ->
    Printf.eprintf "bor: %s\n" e;
    exit 1
  | Ok () ->
    List.iter
      (fun (k, v) -> Printf.printf "serve.%s=%d\n" k v)
      (Bor_serve.Scheduler.stats sched);
    print_registry !stats

let json_str_field name j =
  match Bor_telemetry.Json.member name j with
  | Some (Bor_telemetry.Json.String s) -> Some s
  | _ -> None

(* FILE, --backend and the sampling flags, shared by submit and digest;
   [extra] takes the command's own flags. The kind is decoded here,
   once: a refusal exits 2 before anything is keyed or a socket is
   opened. Returns the job, built (FILE assembled) on demand. *)
let job_flags ~extra rest =
  let file = ref None and backend = ref "detailed" and sampling = ref [] in
  let rec parse = function
    | [] -> ()
    | "--backend" :: v :: r ->
      backend := v;
      parse r
    | f :: r when String.length f > 0 && f.[0] <> '-' ->
      file := Some f;
      parse r
    | args -> (
      let flag =
        match extra args with None -> sampling_flag sampling args | r -> r
      in
      match flag with Some r -> parse r | None -> usage ())
  in
  parse rest;
  let plan = sampling_plan !sampling in
  match Bor_exec.Backend.Kind.of_name !backend plan with
  | Error e -> refuse e
  | Ok _ ->
    fun () ->
      let file = match !file with Some f -> f | None -> usage () in
      Bor_serve.Job.make ?plan ~backend:!backend (assemble file)

(* bor submit: payload on stdout (byte-comparable), bookkeeping on
   stderr — the CI smoke diffs the former and greps the latter. *)
let run_submit rest =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "bor: submit: %s\n" s;
        exit 1)
      fmt
  in
  let socket = ref None
  and wait = ref false
  and stats_only = ref false
  and shutdown = ref false in
  let job =
    job_flags rest ~extra:(function
      | "--socket" :: v :: r ->
        socket := Some v;
        Some r
      | "--wait" :: r ->
        wait := true;
        Some r
      | "--stats" :: r ->
        stats_only := true;
        Some r
      | "--shutdown" :: r ->
        shutdown := true;
        Some r
      | _ -> None)
  in
  let socket = match !socket with Some s -> s | None -> usage () in
  let request req =
    match Bor_serve.Client.request ~socket req with
    | Error e -> fail "%s" e
    | Ok resp -> (
      match Bor_telemetry.Json.member "ok" resp with
      | Some (Bor_telemetry.Json.Bool true) -> resp
      | _ ->
        fail "%s"
          (Option.value ~default:"server refused the request"
             (json_str_field "error" resp)))
  in
  if !shutdown then begin
    ignore (request Bor_serve.Client.shutdown_request);
    Printf.eprintf "server at %s shut down\n" socket
  end
  else if !stats_only then begin
    let resp = request Bor_serve.Client.stats_request in
    match Bor_telemetry.Json.member "stats" resp with
    | Some stats -> print_string (Bor_telemetry.Json.to_string stats)
    | None -> fail "malformed stats response"
  end
  else begin
    let spec = job () in
    let knob f = Option.map f spec.Bor_serve.Job.sp_plan in
    let resp =
      request
        (Bor_serve.Client.submit_request
           ?plan:(knob Bor_uarch.Sampling_plan.to_string)
           ?rank_bands:(knob (fun p -> p.Bor_uarch.Sampling_plan.rank_bands))
           ?ci_target:(knob (fun p -> p.Bor_uarch.Sampling_plan.ci_target))
           ~backend:spec.sp_backend spec.sp_program)
    in
    let key =
      match json_str_field "key" resp with
      | Some k -> k
      | None -> fail "malformed submit response"
    in
    Printf.eprintf "key=%s disposition=%s\n%!" key
      (Option.value ~default:"?" (json_str_field "disposition" resp));
    if !wait then begin
      let resp =
        request (Bor_serve.Client.result_request ~wait:true key)
      in
      match (json_str_field "payload" resp, json_str_field "source" resp) with
      | Some payload, source ->
        Printf.eprintf "source=%s\n%!" (Option.value ~default:"?" source);
        print_string payload
      | None, _ -> fail "malformed result response"
    end
  end

(* bor digest: predict/debug the cache key of a submission without a
   server, keyed by the same function serve keys it with. --explain
   shows the canonical preimage field by field. *)
let run_digest rest =
  let explain = ref false in
  let job =
    job_flags rest ~extra:(function
      | "--explain" :: r ->
        explain := true;
        Some r
      | _ -> None)
  in
  let key = Bor_serve.Job.key (job ()) in
  print_endline (Bor_store.Key.hex key);
  if !explain then prerr_string (Bor_store.Key.preimage key)

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "fuzz" :: rest -> run_fuzz rest
  | _ :: "opt" :: rest -> run_opt rest
  | _ :: "serve" :: rest -> run_serve rest
  | _ :: "submit" :: rest -> run_submit rest
  | _ :: "digest" :: rest -> run_digest rest
  | _ :: "checkpoint" :: rest -> run_checkpoint rest
  | _ :: cmd :: path :: rest ->
    let opts = default_options () and sampling = ref [] in
    let rec parse = function
      | [] -> ()
      | "--framework" :: v :: r ->
        opts.framework <- v;
        parse r
      | "--interval" :: v :: r ->
        opts.interval <- int_flag "--interval" v;
        parse r
      | "--fulldup" :: r ->
        opts.fulldup <- true;
        parse r
      | "--edges" :: r ->
        opts.edges <- true;
        parse r
      | "--yieldpoints" :: r ->
        opts.yieldpoints <- true;
        parse r
      | "--empty-payload" :: r ->
        opts.empty_payload <- true;
        parse r
      | "-o" :: v :: r ->
        opts.output <- Some v;
        parse r
      | "--trace" :: v :: r ->
        opts.trace <- int_flag "--trace" v;
        parse r
      | "--dot" :: r ->
        opts.dot <- true;
        parse r
      | "--stats" :: r ->
        opts.stats <- Stats_text;
        parse r
      | "--stats=json" :: r ->
        opts.stats <- Stats_json;
        parse r
      | "--domains" :: v :: r ->
        opts.domains <- domains_flag v;
        parse r
      | "--sanitize" :: r ->
        Bor_check.Check.set_enabled true;
        parse r
      | args -> (
        match sampling_flag sampling args with
        | Some r -> parse r
        | None -> usage ())
    in
    parse rest;
    let plan = sampling_plan !sampling in
    (match cmd with
    | "asm" -> (
      let p = assemble path in
      match opts.output with
      | Some out ->
        Bor_isa.Objfile.write_file out p;
        Printf.printf "wrote %s (%d instructions)\n" out
          (Bor_isa.Program.instr_count p)
      | None -> Format.printf "%a" Bor_isa.Program.pp_listing p)
    | "run" -> run_functional ~trace:opts.trace (assemble path)
    | "time" -> run_timing opts plan (assemble path)
    | "cc" when opts.dot -> (
      match Bor_minic.Driver.dot ~cfg:(driver_config opts) (read_file path) with
      | Ok d -> print_string d
      | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 1)
    | "cc" -> (
      let c = compile opts path in
      match opts.output with
      | Some out ->
        Bor_isa.Objfile.write_file out c.program;
        Printf.printf "wrote %s (%d instructions, %d sites)\n" out
          (Bor_isa.Program.instr_count c.program)
          (List.length c.sites)
      | None -> print_string c.asm)
    | "ccrun" -> run_functional ~trace:opts.trace (compile opts path).program
    | "cctime" -> run_timing opts plan (compile opts path).program
    | _ -> usage ())
  | _ -> usage ()
