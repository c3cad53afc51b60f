(* bor: command-line front end to the BRISC toolchain: assembler,
   functional and timing simulators, minic compiler, checkpoints,
   fuzzer, superoptimizer and the job server with its client. `bor`
   with no arguments prints every subcommand's synopsis, rendered from
   the flag tables below; docs/ explains the flags (SAMPLING.md for
   --sample and its knobs, TELEMETRY.md for --stats, FUZZING.md for
   --sanitize and fuzz, OPT.md, SERVE.md).

   Exit codes: 2 for a malformed invocation (an unknown flag, a flag
   value out of range, a missing operand), with the usage or a one-line
   diagnostic naming the flag; 1 for a failed input, output or run,
   with one "bor: ..." line. *)

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

(* ------------------------------------------------------------ flags *)

(* What a flag takes: nothing, or one value. Numbers are parsed and
   range-checked by [parse], so a malformed one exits 2 naming the
   flag, never with an uncaught [Failure]. *)
type arg =
  | Switch of (unit -> unit)
  | Value of (string -> unit)
  | Int of int * int * (int -> unit)  (** inclusive bounds *)
  | Decimal of (float -> unit)

(* One row of a subcommand's flag table: the flag, what it takes, and
   its synopsis in the usage text ("" for a spelling that another row's
   synopsis already shows). *)
type flag = string * arg * string

let int ?(min = min_int) ?(max = max_int) set = Int (min, max, set)

type command = {
  names : string list;  (** the words that select it *)
  operands : string;  (** its operands, as the usage shows them *)
  flags : flag list;
  run : string -> string list -> unit;
      (** the name it was called by, then its operands *)
}

(* Raised for a malformed invocation: the command's usage, exit 2. *)
exception Usage

let one_operand = function [ x ] -> x | _ -> raise Usage
let required = function Some v -> v | None -> raise Usage

let refuse e = prerr_endline ("bor: " ^ e); exit 2

let bad_flag flag v expected =
  refuse (Printf.sprintf "%s %s: expected %s" flag v expected)

(* [args] against a command's flag table. Words that are not flags are
   the command's operands, returned in order. *)
let parse flags args =
  let rec go operands = function
    | [] -> List.rev operands
    | a :: rest -> (
      match (List.find_opt (fun (f, _, _) -> f = a) flags, rest) with
      | Some (_, Switch set, _), rest ->
        set ();
        go operands rest
      | Some (_, Value set, _), v :: rest ->
        set v;
        go operands rest
      | Some (f, Int (min, max, set), _), v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= min && n <= max -> set n
        | _ ->
          bad_flag f v
            (match (min, max) with
            | _, m when m < max_int ->
              Printf.sprintf "an integer from %d to %d" min m
            | 0, _ -> "a non-negative integer"
            | 1, _ -> "a positive integer"
            | _ -> "an integer"));
        go operands rest
      | Some (f, Decimal set, _), v :: rest ->
        (match float_of_string_opt v with
        | Some x when Float.is_finite x -> set x
        | _ -> bad_flag f v "a finite number");
        go operands rest
      | None, _ when a <> "" && a.[0] <> '-' -> go (a :: operands) rest
      | _ -> raise Usage)
  in
  go [] args

let usage commands =
  List.iteri
    (fun i c ->
      Format.eprintf "@[<hov 11>%s bor %s%s%a@]@."
        (if i = 0 then "usage:" else "      ")
        (match c.names with
        | [ n ] -> n
        | ns -> "{" ^ String.concat "|" ns ^ "}")
        (if c.operands = "" then "" else " " ^ c.operands)
        (fun ppf ->
          List.iter (fun (_, _, doc) ->
              if doc <> "" then Format.fprintf ppf "@ %s" doc))
        c.flags)
    commands;
  if List.exists (fun c -> c.operands <> "") commands then
    prerr_endline
      "FILE may be assembly (.s), minic (.c for cc*) or a BOR1 object image";
  exit 2

(* Rows more than one subcommand takes, each declared once here. *)

let stats_flags set =
  [
    ("--stats", Switch (fun () -> set Stats_text), "[--stats[=json]]");
    ("--stats=json", Switch (fun () -> set Stats_json), "");
  ]

let sanitize_flag =
  ( "--sanitize",
    Switch (fun () -> Bor_check.Check.set_enabled true),
    "[--sanitize]" )

(* The calling domain plus the pool's worker cap. The runtime itself
   stops at 128 domains with an uncaught [Failure], so larger values
   are refused here, before anything runs. *)
let max_domains = Bor_exec.Pool.max_workers + 1

let domains_flag set =
  ("--domains", int ~min:1 ~max:max_domains set, "[--domains N]")

let max_cycles_flag set = ("--max-cycles", int set, "[--max-cycles N]")

(* --sample, --rank-bands and --ci-target, in any order: the rows
   collect them, and once parsing is done [sampling_plan] builds the
   one plan from the last of each. *)
type sampling = {
  mutable sample : string option;
  mutable rank_bands : int option;
  mutable ci_target : float option;
}

let no_sampling () = { sample = None; rank_bands = None; ci_target = None }

let sample_flag s =
  ("--sample", Value (fun v -> s.sample <- Some v), "[--sample W:D:P[:SEED]]")

let sampling_flags s =
  [
    sample_flag s;
    ("--rank-bands", int (fun k -> s.rank_bands <- Some k), "[--rank-bands K]");
    ("--ci-target", Decimal (fun x -> s.ci_target <- Some x), "[--ci-target PCT]");
  ]

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

let sampling_plan s =
  let rank_bands = s.rank_bands and ci_target = s.ci_target in
  match s.sample with
  | None when rank_bands <> None || ci_target <> None ->
    refuse "--rank-bands/--ci-target require --sample W:D:P[:SEED]"
  | None -> None
  | Some v -> (
    match Bor_uarch.Sampling_plan.of_string v with
    | Error e -> sample_usage v e
    | Ok p -> (
      match
        Bor_uarch.Sampling_plan.with_selection ?rank_bands ?ci_target p
      with
      | Ok plan -> Some plan
      | Error e -> refuse e))

(* ------------------------------------------------- inputs and outputs *)

(* A failed input, output or run: one line naming the subcommand
   ([Sys.argv.(1)]: only a dispatched command gets here), then exit 1. *)
let fail e =
  Printf.eprintf "bor: %s: %s\n" Sys.argv.(1) e;
  exit 1

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> fail e

(* The flush inside reports a full disk: [with_open_bin]'s own close
   would swallow it. *)
let write_file path contents =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents;
        Out_channel.flush oc)
  with Sys_error e -> fail e

(* Accept both assembly source and BOR1 object images. *)
let assemble path =
  match Bor_isa.Toolchain.load_program_file path with
  | Ok p -> p
  | Error e -> fail e

(* A failure whose message names itself, such as the fault of a
   program the simulators cannot load: "bor: <message>", exit 1. *)
let die e =
  prerr_endline ("bor: " ^ e);
  exit 1

let build make =
  match Bor_uarch.Pipeline.guard (fun () -> Ok (make ())) with
  | Ok b -> b
  | Error e -> die e

let driver_config o =
  let open Bor_minic.Instrument in
  let sampled check =
    Sampled (check, if o.fulldup then Full_duplication else No_duplication)
  in
  Bor_minic.Driver.config
    ~placement:
      (if o.edges then Cond_edges
       else if o.yieldpoints then Yieldpoints
       else Method_entry)
    ~payload:(if o.empty_payload then Empty_payload else Profile_count)
    (match o.framework with
    | "none" -> No_instrumentation
    | "full" -> Full
    | "cbs" -> sampled (Counter o.interval)
    | "brr" -> sampled (Brr (Bor_core.Freq.of_period o.interval))
    | other -> bad_flag "--framework" other "none|full|cbs|brr")

let compile opts path =
  match Bor_minic.Driver.compile ~cfg:(driver_config opts) (read_file path) with
  | Ok c -> c
  | Error e -> fail (path ^ ": " ^ e)

(* ------------------------------------------------------------- runs *)

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
  | Error e -> fail e);
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
  | Error e -> fail e
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

(* ------------------------------------------------------ subcommands *)

(* asm/run/time assemble FILE; cc/ccrun/cctime compile it as minic. *)
let tool () =
  let o = default_options () and s = no_sampling () in
  let switch name set = (name, Switch set, "[" ^ name ^ "]") in
  {
    names = [ "asm"; "run"; "time"; "cc"; "ccrun"; "cctime" ];
    operands = "FILE";
    flags =
      [
        ("-o", Value (fun v -> o.output <- Some v), "[-o OUT.bor]");
        ("--trace", int (fun n -> o.trace <- n), "[--trace N]");
        ( "--framework",
          Value (fun v -> o.framework <- v),
          "[--framework none|full|cbs|brr]" );
        ("--interval", int (fun n -> o.interval <- n), "[--interval N]");
        switch "--fulldup" (fun () -> o.fulldup <- true);
        switch "--edges" (fun () -> o.edges <- true);
        switch "--yieldpoints" (fun () -> o.yieldpoints <- true);
        switch "--empty-payload" (fun () -> o.empty_payload <- true);
        switch "--dot" (fun () -> o.dot <- true);
      ]
      @ stats_flags (fun m -> o.stats <- m)
      @ [ sanitize_flag ]
      @ sampling_flags s
      @ [ domains_flag (fun n -> o.domains <- n) ];
    run =
      (fun cmd operands ->
        let path = one_operand operands in
        let plan = sampling_plan s in
        match cmd with
        | "asm" -> (
          let p = assemble path in
          match o.output with
          | Some out ->
            write_file out (Bor_isa.Objfile.save p);
            Printf.printf "wrote %s (%d instructions)\n" out
              (Bor_isa.Program.instr_count p)
          | None -> Format.printf "%a" Bor_isa.Program.pp_listing p)
        | "run" -> run_functional ~trace:o.trace (assemble path)
        | "time" -> run_timing o plan (assemble path)
        | "cc" when o.dot -> (
          match
            Bor_minic.Driver.dot ~cfg:(driver_config o) (read_file path)
          with
          | Ok d -> print_string d
          | Error e -> fail (path ^ ": " ^ e))
        | "cc" -> (
          let c = compile o path in
          match o.output with
          | Some out ->
            write_file out (Bor_isa.Objfile.save c.program);
            Printf.printf "wrote %s (%d instructions, %d sites)\n" out
              (Bor_isa.Program.instr_count c.program)
              (List.length c.sites)
          | None -> print_string c.asm)
        | "ccrun" -> run_functional ~trace:o.trace (compile o path).program
        | _ (* cctime *) -> run_timing o plan (compile o path).program);
  }

(* bor checkpoint save/resume: every failure — unreadable file, bad
   magic, digest or version mismatch, wrong program — prints a
   diagnostic and exits 1. *)
let checkpoint_save () =
  let at = ref None and out = ref None in
  {
    names = [ "checkpoint save" ];
    operands = "FILE";
    flags =
      [
        ("--at", int ~min:0 (fun n -> at := Some n), "--at N");
        ("-o", Value (fun v -> out := Some v), "-o OUT.ckpt");
        sanitize_flag;
      ];
    run =
      (fun _ operands ->
        let path = one_operand operands in
        let at = required !at and out = required !out in
        let prog = assemble path in
        let b = build (fun () -> Bor_exec.Backend.warming ~max_steps:at prog) in
        let warmed =
          match b.Bor_exec.Backend.run () with
          | Ok (Bor_exec.Backend.Warmed { instructions }) -> instructions
          | Ok _ -> 0
          | Error e -> fail e
        in
        let ck =
          Bor_exec.Checkpoint.capture
            ~program_digest:(Bor_exec.Checkpoint.program_digest prog)
            (Option.get b.Bor_exec.Backend.pipeline)
        in
        match Bor_exec.Checkpoint.save_file out ck with
        | Error e -> fail e
        | Ok () ->
          Printf.printf
            "wrote %s: checkpoint v%d at pc 0x%05x after %d warmed \
             instructions (%d memory pages)\n"
            out Bor_exec.Checkpoint.version
            ck.Bor_exec.Checkpoint.ck_arch.Bor_sim.Machine.a_pc warmed
            (Bor_sim.Memory.snapshot_pages ck.Bor_exec.Checkpoint.ck_mem
            |> Array.length));
  }

let checkpoint_resume () =
  let from = ref None and stats = ref Stats_off and max_cycles = ref None in
  {
    names = [ "checkpoint resume" ];
    operands = "FILE";
    flags =
      ("--from", Value (fun v -> from := Some v), "--from CKPT")
      :: stats_flags (( := ) stats)
      @ [ max_cycles_flag (fun n -> max_cycles := Some n); sanitize_flag ];
    run =
      (fun _ operands ->
        let path = one_operand operands and from = required !from in
        if !stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
        let prog = assemble path in
        let ( let* ) = Result.bind in
        match
          let* ck = Bor_exec.Checkpoint.load_file from in
          let* b =
            Bor_uarch.Pipeline.guard (fun () ->
                Bor_exec.Backend.resume ?max_cycles:!max_cycles ck prog)
          in
          b.Bor_exec.Backend.run ()
        with
        | Error e -> fail e
        | Ok (Bor_exec.Backend.Detailed st) ->
          Format.printf "%a@." Bor_uarch.Pipeline.pp_stats st;
          print_registry !stats
        | Ok _ -> ());
  }

(* bor fuzz: any number of seed files (.c compiles as minic; anything
   else loads as assembly/object). *)
let fuzz () =
  let iters = ref 200
  and seed = ref 1
  and corpus = ref "test/corpus"
  and max_cycles = ref 20_000_000 in
  {
    names = [ "fuzz" ];
    operands = "[SEED-FILES]";
    flags =
      [
        ("--iters", int (( := ) iters), "[--iters N]");
        ("--seed", int (( := ) seed), "[--seed N]");
        ("--corpus", Value (( := ) corpus), "[--corpus DIR]");
        max_cycles_flag (( := ) max_cycles);
      ];
    run =
      (fun _ seeds ->
        let c_files, others =
          List.partition (fun f -> Filename.check_suffix f ".c") seeds
        in
        let minic_sources = List.map read_file c_files in
        let programs = List.map assemble others in
        let report =
          Bor_gen.Fuzz.run ~iters:!iters ~seed:!seed ~corpus_dir:!corpus
            ~minic_sources ~programs ~max_cycles:!max_cycles ~log:print_endline
            ()
        in
        Format.printf "%a@." Bor_gen.Fuzz.pp_report report;
        if report.Bor_gen.Fuzz.crashes <> [] then exit 1);
  }

(* bor opt: STOKE-style stochastic superoptimization (docs/OPT.md).
   Each target (.s/.bor assembles, .c compiles as minic) gets a
   seeded Metropolis–Hastings search; verified rewrites are written as
   .s files (-o DIR) and a machine-readable rewrite table (--json). *)
let opt () =
  let p = ref Bor_opt.Search.default_params
  and s = no_sampling ()
  and out_dir = ref None
  and json_out = ref None
  and progress = ref false
  and stats = ref Stats_off in
  let param name ?min doc set =
    (name, int ?min (fun n -> p := set !p n), doc)
  in
  {
    names = [ "opt" ];
    operands = "FILE...";
    flags =
      [
        param "--seed" "[--seed N]" (fun p n ->
            { p with Bor_opt.Search.p_seed = n });
        param "--rounds" ~min:1 "[--rounds N]" (fun p n ->
            { p with Bor_opt.Search.p_rounds = n });
        param "--iters" ~min:1 "[--iters N]" (fun p n ->
            { p with Bor_opt.Search.p_iters = n });
        param "--chains" ~min:1 "[--chains N]" (fun p n ->
            { p with Bor_opt.Search.p_chains = n });
        domains_flag (fun n -> p := { !p with Bor_opt.Search.p_domains = n });
        ( "--temp",
          Decimal (fun x -> p := { !p with Bor_opt.Search.p_temperature = x }),
          "[--temp F]" );
        param "--vectors" ~min:1 "[--vectors K]" (fun p n ->
            { p with Bor_opt.Search.p_vectors = n });
        sample_flag s;
        ("-o", Value (fun v -> out_dir := Some v), "[-o DIR]");
        ("--json", Value (fun v -> json_out := Some v), "[--json FILE]");
        ("--progress", Switch (fun () -> progress := true), "[--progress]");
      ]
      @ stats_flags (( := ) stats)
      @ [ sanitize_flag ];
    run =
      (fun _ files ->
        Option.iter
          (fun plan ->
            p := { !p with Bor_opt.Search.p_oracle = Bor_opt.Cost.Sampled plan })
          (sampling_plan s);
        if files = [] then raise Usage;
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
                      Printf.eprintf "bor opt: %s: round %d, best cost %d\n%!"
                        file round best)
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
                      Filename.remove_extension (Filename.basename file)
                      ^ "_opt"
                    in
                    let path =
                      try
                        Bor_gen.Corpus.write ~dir ~name ~tool:"bor opt"
                          ~seed:!p.p_seed
                          ~note:
                            (Printf.sprintf
                               "bor opt rewrite of %s: cost %d -> %d" file
                               r.r_target_cost r.r_best_cost)
                          r.r_best
                      with Sys_error e -> fail e
                    in
                    Printf.printf "bor opt: wrote %s\n" path
                end
                else if r.r_improved then
                  Printf.printf
                    "bor opt: %s: candidate at cost %d failed verification \
                     (%s), keeping target (cost %d)\n"
                    file r.r_best_cost r.r_note r.r_target_cost
                else
                  Printf.printf "bor opt: %s: no rewrite found (cost %d)\n"
                    file r.r_target_cost;
                (file, Some r))
            files
        in
        Option.iter
          (fun path ->
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
            write_file path
              (Bor_telemetry.Json.to_string
                 (Bor_telemetry.Json.Obj
                    [
                      ("schema", Bor_telemetry.Json.String "bor-opt-rewrites-v1");
                      ("rewrites", Bor_telemetry.Json.List entries);
                    ]));
            Printf.printf "bor opt: wrote %s\n" path)
          !json_out;
        print_registry !stats;
        if !failed then exit 1);
  }

(* bor serve: the docs/SERVE.md job server. Runs until a client sends
   a shutdown request; the final counter line makes smoke tests and
   operators see cache behavior without parsing JSON. *)
let serve () =
  let socket = ref None
  and metrics_socket = ref None
  and domains =
    ref
      (max 1 (min max_domains (Domain.recommended_domain_count () - 1)))
  and store_dir = ref None
  and cache_max = ref None
  and stats = ref Stats_off in
  {
    names = [ "serve" ];
    operands = "";
    flags =
      [
        ("--socket", Value (fun v -> socket := Some v), "--socket PATH");
        ( "--metrics-socket",
          Value (fun v -> metrics_socket := Some v),
          "[--metrics-socket PATH]" );
        domains_flag (( := ) domains);
        ("--store", Value (fun v -> store_dir := Some v), "[--store DIR");
        ( "--cache-max-bytes",
          int ~min:1 (fun n -> cache_max := Some n),
          "[--cache-max-bytes N]]" );
      ]
      @ stats_flags (( := ) stats)
      @ [ sanitize_flag ];
    run =
      (fun _ operands ->
        if operands <> [] then raise Usage;
        let socket = required !socket in
        (* Telemetry before the scheduler: the serve.* instruments
           register at scheduler creation. *)
        if !stats <> Stats_off then Bor_telemetry.Telemetry.set_enabled true;
        let store =
          Option.map
            (fun dir ->
              match Bor_store.Store.create ?max_bytes:!cache_max dir with
              | Ok s -> s
              | Error e -> die e)
            !store_dir
        in
        let sched = Bor_serve.Scheduler.create ~domains:!domains ?store () in
        Printf.eprintf "bor serve: listening on %s (%d worker%s%s)\n%!" socket
          !domains
          (if !domains = 1 then "" else "s")
          (match !store_dir with
          | None -> ", no store"
          | Some d -> Printf.sprintf ", store %s" d);
        match
          Bor_serve.Server.run ~socket ?metrics_socket:!metrics_socket sched
        with
        | Error e -> die e
        | Ok () ->
          List.iter
            (fun (k, v) -> Printf.printf "serve.%s=%d\n" k v)
            (Bor_serve.Scheduler.stats sched);
          print_registry !stats);
  }

let json_str_field name j =
  match Bor_telemetry.Json.member name j with
  | Some (Bor_telemetry.Json.String s) -> Some s
  | _ -> None

(* --backend and the sampling flags, shared by submit and digest, and
   the job they describe. [decode ()] decodes the kind once, so a
   refusal exits 2 before anything is keyed or a socket is opened; the
   function it returns assembles FILE into the job, refusing an image
   the simulators could not load just as a run would. *)
let job_flags () =
  let backend = ref "detailed" and s = no_sampling () in
  let decode () =
    let plan = sampling_plan s in
    match Bor_exec.Backend.Kind.of_name !backend plan with
    | Error e -> refuse e
    | Ok _ ->
      fun file ->
        let prog = assemble file in
        Result.iter_error die (Bor_sim.Machine.check_data prog);
        Bor_serve.Job.make ?plan ~backend:!backend prog
  in
  (("--backend", Value (( := ) backend), "[--backend NAME]") :: sampling_flags s,
   decode)

(* bor submit: payload on stdout (byte-comparable), bookkeeping on
   stderr — the CI smoke diffs the former and greps the latter. *)
let submit () =
  let job_rows, decode = job_flags () in
  let socket = ref None
  and wait = ref false
  and stats_only = ref false
  and shutdown = ref false in
  {
    names = [ "submit" ];
    operands = "[FILE]";
    flags =
      (("--socket", Value (fun v -> socket := Some v), "--socket PATH")
         :: job_rows)
      @ [
          ("--wait", Switch (fun () -> wait := true), "[--wait]");
          ("--stats", Switch (fun () -> stats_only := true), "| --stats");
          ("--shutdown", Switch (fun () -> shutdown := true), "| --shutdown");
        ];
    run =
      (fun _ operands ->
        let job = decode () in
        let socket = required !socket in
        let request req =
          match Bor_serve.Client.request ~socket req with
          | Error e -> fail e
          | Ok resp -> (
            match Bor_telemetry.Json.member "ok" resp with
            | Some (Bor_telemetry.Json.Bool true) -> resp
            | _ ->
              fail
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
          let spec = job (one_operand operands) in
          let knob f = Option.map f spec.Bor_serve.Job.sp_plan in
          let resp =
            request
              (Bor_serve.Client.submit_request
                 ?plan:(knob Bor_uarch.Sampling_plan.to_string)
                 ?rank_bands:
                   (knob (fun p -> p.Bor_uarch.Sampling_plan.rank_bands))
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
            match
              (json_str_field "payload" resp, json_str_field "source" resp)
            with
            | Some payload, source ->
              Printf.eprintf "source=%s\n%!" (Option.value ~default:"?" source);
              print_string payload
            | None, _ -> fail "malformed result response"
          end
        end);
  }

(* bor digest: predict/debug the cache key of a submission without a
   server, keyed by the same function serve keys it with. --explain
   shows the canonical preimage field by field. *)
let digest () =
  let job_rows, decode = job_flags () and explain = ref false in
  {
    names = [ "digest" ];
    operands = "FILE";
    flags =
      job_rows @ [ ("--explain", Switch (fun () -> explain := true), "[--explain]") ];
    run =
      (fun _ operands ->
        let job = decode () in
        let key = Bor_serve.Job.key (job (one_operand operands)) in
        print_endline (Bor_store.Key.hex key);
        if !explain then prerr_string (Bor_store.Key.preimage key));
  }

let () =
  let commands =
    [ tool (); checkpoint_save (); checkpoint_resume (); fuzz (); opt ();
      serve (); submit (); digest () ]
  in
  let name, args =
    match List.tl (Array.to_list Sys.argv) with
    | "checkpoint" :: sub :: args -> ("checkpoint " ^ sub, args)
    | name :: args -> (name, args)
    | [] -> ("", [])
  in
  match List.find_opt (fun c -> List.mem name c.names) commands with
  | None -> usage commands
  | Some c -> ( try c.run name (parse c.flags args) with Usage -> usage [ c ])
