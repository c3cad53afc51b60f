(* bench/perf: the repository's performance benchmark.

   Usage:
     perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--json FILE] [--bor PATH] [--root DIR]
     perf.exe --write-reference --seed N
     perf.exe compare PARENT.json CHANGE.json

   Workloads: detailed sampled windows serve opt (README.md says what
   each one stresses and why). One run measures one workload for
   --seconds, checks every output against bench/perf/reference.txt and
   prints each metric by name, unit and sample count, then, as the last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics untraced, the per-layer metrics with --trace 1.
   --workload all (the default) runs each workload in a fresh process.
   --json FILE appends the run, with every per-repeat sample, as one
   JSON line; [compare] reads two such files. Scratch files (server
   sockets, stores, trace_<workload>.json) go under _build/perf. *)

let workloads = [ "detailed"; "sampled"; "windows"; "serve"; "opt" ]

let usage () =
  prerr_string
    "usage: perf.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--quick] [--json FILE] [--bor PATH] [--root DIR]\n\
    \       perf.exe --write-reference --seed N\n\
    \       perf.exe compare PARENT.json CHANGE.json\n\
     workloads: detailed sampled windows serve opt\n";
  exit 2

(* ------------------------------------------------------------ one run *)

let sim_mode = function
  | "detailed" -> Sim.Detailed
  | "sampled" -> Sim.Sampled_default
  | _ -> Sim.Windows

let measure c name =
  let o = c.Ctx.o in
  let started = Trace.now () in
  let deadline_after = o.seconds in
  let e2e, layers =
    match name with
    | "serve" ->
      let r = Serve_load.run c ~deadline_after in
      (r.e2e, r.layers)
    | "opt" ->
      let targets = Ctx.setup c (fun () -> Opt_load.targets c) in
      let r = Opt_load.run c targets ~deadline_after in
      (r.e2e, r.layers)
    | _ ->
      let kernels =
        Ctx.setup c (fun () -> Kernels.compile c ~quick:o.quick ~seed:o.seed)
      in
      let kernels = Kernels.with_checksums ~quick:o.quick ~seed:o.seed kernels in
      let r = Sim.run c (sim_mode name) kernels ~deadline_after in
      (r.e2e, r.layers)
  in
  let wall = Trace.now () -. started in
  if not o.trace then
    let setup = List.rev c.setup_times in
    Metrics.collect Metrics.end_to_end
      (e2e @ [ ("setup_s", Stats.median setup, setup) ])
  else begin
    let spans = Trace.spans c.tr in
    let compile =
      List.fold_left
        (fun a (s, x) -> if s.Trace.name = "minic.compile" then a +. x else a)
        0. (Trace.self_times spans)
    in
    let overhead =
      float_of_int (List.length spans) *. Trace.per_span_cost () /. wall *. 100.
    in
    Metrics.collect Metrics.per_layer
      (layers
      @ [
          ("minic.compile_s", compile /. float_of_int (max 1 c.setup_runs), []);
          ("trace.overhead_pct", overhead, []);
        ])
  end

let print_metric (m : Report.metric) =
  let n = List.length m.samples in
  let spread =
    if n < 2 then ""
    else
      let q1, q2, q3 = Stats.quartiles m.samples in
      let tail =
        match Stats.tail_percentile n with
        | Some p when p > 50. ->
          Printf.sprintf "  p%g %.6g" p (Stats.percentile m.samples p)
        | _ -> ""
      in
      Printf.sprintf "  samples: q1 %.6g  p50 %.6g  q3 %.6g%s" q1 q2 q3 tail
  in
  Printf.printf "  %-26s %14.6g %-6s n=%d%s\n" m.name m.value m.unit_ (max n 1) spread

let run_one o name =
  let c = Ctx.create o in
  Printf.printf "perf: workload %s, seed %d, %gs%s%s\n%!" name o.Ctx.seed o.seconds
    (if o.trace then ", traced" else "")
    (if o.quick then ", quick" else "");
  let metrics = measure c name in
  Ctx.write_trace c ~workload:name;
  List.iter print_metric metrics;
  let r =
    {
      Report.workload = name;
      seed = o.seed;
      traced = o.trace;
      correct = c.failed = 0;
      attempted = max 1 c.attempted;
      failed = c.failed;
      metrics;
    }
  in
  Printf.printf "  operations: %d attempted, %d failed\n" c.attempted c.failed;
  r

(* ---------------------------------------------------- reference rows *)

let write_reference o =
  let seed = o.Ctx.seed in
  let star = "*" and own = string_of_int seed in
  let old = Reference.load (Ctx.reference_path o) in
  let refs : Reference.t = Hashtbl.create 64 in
  List.iter
    (fun quick ->
      let c = { (Ctx.create { o with quick; trace = false }) with refs } in
      let kernels =
        Kernels.with_checksums ~quick ~seed (Kernels.compile c ~quick ~seed)
      in
      List.iter
        (fun k ->
          (* Only micro's input depends on the seed. *)
          let seeded = k.Kernels.checksum <> None in
          let a0 m = string_of_int (Bor_sim.Machine.reg m (Bor_isa.Reg.a 0)) in
          let b = Bor_exec.Backend.detailed k.prog in
          (match b.run () with Ok _ -> () | Error e -> failwith e);
          let m = b.machine () in
          (match k.checksum with
          | Some (addr, expected)
            when Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) addr <> expected
            ->
            failwith (k.name ^ ": checksum differs from the interpreter's")
          | _ -> ());
          Reference.set refs ~kind:"kernel" ~name:k.name
            ~seed:(if seeded then own else star)
            [
              ("cycles", string_of_int (Bor_uarch.Pipeline.cycle (Option.get b.pipeline)));
              ("instructions", string_of_int (Sim.instructions m));
              ("a0", a0 m);
            ];
          List.iter
            (fun mode ->
              let plan = Sim.plan_of mode seed in
              let p = Bor_uarch.Pipeline.create k.prog in
              match Bor_exec.Sampled.run_on ~plan ~domains:(Sim.domains_of mode) p with
              | Error e -> failwith e
              | Ok s ->
                Reference.set refs ~kind:(Sim.mode_name mode) ~name:k.name ~seed:own
                  [
                    ("estimate", Printf.sprintf "%.0f" s.sp_cycles_estimate);
                    ("windows", string_of_int s.sp_windows);
                    ("instructions", string_of_int s.sp_instructions);
                    ("a0", a0 (Bor_uarch.Pipeline.oracle p));
                  ])
            [ Sim.Sampled_default; Sim.Windows ])
        kernels;
      List.iter
        (fun (j : Serve_load.job) ->
          match Bor_serve.Job.run j.spec with
          | Error e -> failwith e
          | Ok (payload, _) ->
            Reference.set refs ~kind:"serve" ~name:j.name
              ~seed:(if j.seeded then own else star)
              [ ("sha256", Bor_telemetry.Sha256.digest payload) ])
        (Serve_load.catalogue c);
      List.iter
        (fun ((name, prog) : string * Bor_isa.Program.t) ->
          match Bor_opt.Search.run (Opt_load.params c ~domains:2) prog with
          | Error e -> failwith e
          | Ok r ->
            Reference.set refs ~kind:"opt" ~name:(Opt_load.reference_name c name)
              ~seed:own
              [
                ("best", string_of_int r.r_best_cost);
                ("verified", string_of_bool r.r_verified);
                ("evals", string_of_int r.r_counters.n_oracle_evals);
              ])
        (Opt_load.targets c))
    [ false; true ];
  (* Other seeds' rows survive for the operations still run. *)
  Hashtbl.iter
    (fun ((kind, name, s) as k) v ->
      let still_run =
        Hashtbl.mem refs (kind, name, own) || Hashtbl.mem refs (kind, name, star)
      in
      if s <> own && s <> star && still_run && not (Hashtbl.mem refs k) then
        Hashtbl.replace refs k v)
    old;
  Reference.save (Ctx.reference_path o) refs;
  Printf.printf "perf: wrote %s for seed %d\n" (Ctx.reference_path o) seed

(* ------------------------------------------------------------------ CLI *)

let () =
  (* A run stopped by a signal still stops its servers (at_exit). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let argv = Array.to_list Sys.argv in
  match List.tl argv with
  | [ "compare"; parent; change ] ->
    let worse = Compare.run ~parent ~change in
    exit (if worse > 0 then 1 else 0)
  | args ->
    let workload = ref "all" and seed = ref 1 and seconds = ref None
    and trace = ref false and quick = ref false and json = ref None
    and bor = ref "_build/default/bin/bor.exe" and root = ref "."
    and write_ref = ref false in
    let int_arg flag v =
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        Printf.eprintf "perf: %s %s: expected an integer\n" flag v;
        exit 2
    in
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: r ->
        workload := v;
        parse r
      | "--seed" :: v :: r ->
        seed := int_arg "--seed" v;
        parse r
      | "--seconds" :: v :: r ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := Some s
        | _ ->
          Printf.eprintf "perf: --seconds %s: expected a positive number\n" v;
          exit 2);
        parse r
      | "--trace" :: ("0" | "1" as v) :: r ->
        trace := v = "1";
        parse r
      | "--trace" :: r ->
        trace := true;
        parse r
      | "--quick" :: r ->
        quick := true;
        parse r
      | "--json" :: f :: r ->
        json := Some f;
        parse r
      | "--bor" :: f :: r ->
        bor := f;
        parse r
      | "--root" :: d :: r ->
        root := d;
        parse r
      | "--write-reference" :: r ->
        write_ref := true;
        parse r
      | _ -> usage ()
    in
    parse args;
    let o =
      {
        Ctx.seed = !seed;
        seconds =
          (match !seconds with Some s -> s | None -> if !quick then 1. else 20.);
        quick = !quick;
        trace = !trace;
        bor = !bor;
        root = !root;
      }
    in
    if !write_ref then write_reference o
    else if !workload = "all" then begin
      (* A fresh process per workload, so no workload inherits another's
         heap, caches or domains. *)
      let rec without_workload = function
        | "--workload" :: _ :: r -> without_workload r
        | x :: r -> x :: without_workload r
        | [] -> []
      in
      let failed =
        List.filter
          (fun w ->
            let child =
              Array.of_list
                (Sys.executable_name :: "--workload" :: w :: without_workload args)
            in
            let pid =
              Unix.create_process Sys.executable_name child Unix.stdin Unix.stdout
                Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> false
            | _ -> true)
          workloads
      in
      if failed <> [] then begin
        Printf.eprintf "perf: failed: %s\n" (String.concat " " failed);
        exit 1
      end
    end
    else if not (List.mem !workload workloads) then usage ()
    else begin
      let r = run_one o !workload in
      Option.iter
        (fun f ->
          Out_channel.with_open_gen
            [ Open_wronly; Open_creat; Open_append; Open_binary ]
            0o644 f
            (fun oc -> output_string oc (Report.to_record r ^ "\n")))
        !json;
      print_endline (Report.result_line r);
      exit (if r.failed = 0 then 0 else 1)
    end
