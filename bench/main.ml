(* Benchmark harness: regenerates every figure of the paper's evaluation
   (there are no numbered tables), plus the §3.3 hardware-cost and §3.4
   determinism results, ablations, width sweeps, and the simulator's
   own warming and ranked-sampling checks. It pins simulated behaviour
   by digest; host timing is bench/perf's job (BENCHMARK.json).

   Usage:
     bench/main.exe                 # every experiment, default sizes
     bench/main.exe fig9 fig14      # a subset
     bench/main.exe --scale 16 fig9 # larger accuracy streams
     bench/main.exe --chars 100000 fig13
     bench/main.exe --csv out/ fig9 fig14   # also dump CSV per experiment
     bench/main.exe --json out/ fig9 fig14  # BENCH_<name>.json + DIGESTS.txt
     bench/main.exe --jobs 4                # experiments on 4 domains
   Experiments: fig6 fig9 fig10 sensitivity fig12 fig13 fig14 baseline
                hwcost determinism ablation widths accuracy-compiled
                convergent warming ranked
   An unknown experiment, a non-integer --scale/--chars/--seeds/--jobs
   or a non-numeric BOR_WARM_FLOOR_MIPS exits 2 with the list of
   experiments.

   --json DIR writes one BENCH_<name>.json per experiment (schema in
   docs/TELEMETRY.md: the printed tables plus the telemetry registry
   snapshot) and DIGESTS.txt with a SHA-256 per file. Everything in
   those files is a pure function of the simulated work, so two runs
   with the same arguments produce byte-identical digests -- that is
   what the @bench-check dune alias asserts. warming reports host
   wall-clock throughput and is the one experiment excluded.

   --jobs N runs independent experiments on a pool of N domains, each
   writing its own BENCH_<name>.json; per-file output is identical to
   running that experiment alone (cross-experiment caches and
   telemetry are reset before every pooled experiment, so a file can
   differ from what a combined sequential run of several experiments
   would produce -- the @bench-check rule therefore stays sequential).
   Worker stdout is buffered per experiment and replayed in canonical
   order. *)

module Json = Bor_telemetry.Json
module Telemetry = Bor_telemetry.Telemetry

let scale = ref 32
let chars = ref 60_000
let seeds = ref 5
let jobs = ref 1
let csv_dir = ref None
let json_dir = ref None

(* Per-domain experiment context. The --jobs pool runs experiments on
   several domains concurrently, so everything an experiment mutates
   while it runs — the section/table capture for --json, the CSV
   truncate-once bookkeeping, and the printed text itself — lives in
   domain-local storage. [out = None] (the sequential path) writes
   straight to stdout; under --jobs every participant, the calling
   domain included, installs a buffer and the caller replays the
   buffers in canonical order. *)
type ctx = {
  mutable out : Buffer.t option;
  mutable experiment : string;
  mutable title : string;
  mutable paper : string;
  mutable tables : (string list * string list list) list;
  (* CSV files are truncated on an experiment's first table of this
     process and appended to afterwards. (They used to be opened with
     Open_append unconditionally, so every re-run of the harness
     duplicated all rows into the previous run's file.) *)
  csv_started : (string, unit) Hashtbl.t;
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      {
        out = None;
        experiment = "experiment";
        title = "";
        paper = "";
        tables = [];
        csv_started = Hashtbl.create 8;
      })

let ctx () = Domain.DLS.get ctx_key

let emit s =
  match (ctx ()).out with
  | None -> print_string s
  | Some b -> Buffer.add_string b s

let printf fmt = Printf.ksprintf emit fmt

let section title paper =
  let c = ctx () in
  c.title <- title;
  c.paper <- paper;
  printf "\n=== %s ===\n%s\n\n" title paper

(* Print a table; mirror it as CSV (--csv DIR) or JSON (--json DIR). *)
let table ~headers rows =
  emit (Bor_util.Table.render ~headers rows);
  let c = ctx () in
  if !json_dir <> None then c.tables <- (headers, rows) :: c.tables;
  match !csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (c.experiment ^ ".csv") in
    let mode =
      if Hashtbl.mem c.csv_started c.experiment then Open_append
      else begin
        Hashtbl.replace c.csv_started c.experiment ();
        Open_trunc
      end
    in
    let oc = open_out_gen [ Open_creat; mode; Open_wronly ] 0o644 path in
    output_string oc (Bor_util.Table.csv ~headers rows);
    close_out oc

(* ------------------------------------------------------------- Figure 6 *)

let fig6 () =
  section "Figure 6: 4-bit LFSR update sequence"
    "Paper: the register cycles through all 15 non-zero values in the\n\
     listed order (0001 1000 0100 ... 0011) and returns to 0001.";
  let l = Bor_lfsr.Lfsr.create ~seed:1 (Bor_lfsr.Taps.maximal 4) in
  let rows =
    List.init 16 (fun i ->
        let v = Bor_lfsr.Lfsr.peek l in
        ignore (Bor_lfsr.Lfsr.step l);
        [
          string_of_int (i + 1);
          Printf.sprintf "%d%d%d%d" ((v lsr 3) land 1) ((v lsr 2) land 1)
            ((v lsr 1) land 1) (v land 1);
        ])
  in
  table ~headers:[ "step"; "value" ] rows

(* -------------------------------------------------------- Figures 9, 10 *)

let accuracy_row interval name =
  let spec = Bor_workload.Dacapo.spec ~scale:!scale name in
  let events = Bor_workload.Dacapo.events spec in
  let acc sampler = Bor_sampling.Experiment.accuracy_of events sampler in
  let sw = acc (Bor_sampling.Sampler.software_counter ~reset:interval ()) in
  let hw = acc (Bor_sampling.Sampler.hardware_counter ~interval ()) in
  let rnd =
    acc
      (Bor_sampling.Sampler.branch_on_random
         ~engine:(Bor_core.Engine.create ~seed:0x51CA ())
         (Bor_core.Freq.of_period interval))
  in
  (name, sw, hw, rnd)

let accuracy_figure ~interval ~label ~paper =
  section label paper;
  let rows = List.map (accuracy_row interval) Bor_workload.Dacapo.names in
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0. rows
    /. Float.of_int (List.length rows)
  in
  let table_rows =
    List.map
      (fun (name, sw, hw, rnd) ->
        [
          name;
          Bor_util.Table.pct sw;
          Bor_util.Table.pct hw;
          Bor_util.Table.pct rnd;
        ])
      rows
    @ [
        [
          "average";
          Bor_util.Table.pct (avg (fun (_, s, _, _) -> s));
          Bor_util.Table.pct (avg (fun (_, _, h, _) -> h));
          Bor_util.Table.pct (avg (fun (_, _, _, r) -> r));
        ];
      ]
  in
  table ~headers:[ "benchmark"; "sw count"; "hw count"; "random" ]
    table_rows

let fig9 () =
  accuracy_figure ~interval:1024 ~label:"Figure 9: sampling accuracy at 2^10"
    ~paper:
      "Paper: all three techniques comparable (~86-99%); jython is the\n\
       outlier where both counters resonate with the two-method loop\n\
       cycle and trail random by ~7%. fop/antlr are lowest (fewest\n\
       samples). Streams here are synthetic DaCapo analogues (DESIGN.md)."

let fig10 () =
  accuracy_figure ~interval:8192 ~label:"Figure 10: sampling accuracy at 2^13"
    ~paper:
      "Paper: same trends, everything lower (8x fewer samples); jython\n\
       again poor with counters and now pmd shows the pathology too (its\n\
       nested-loop cycle divides 2^13 but not 2^10)."

(* ---------------------------------------------------- §4.2 sensitivity *)

let sensitivity () =
  section "Sensitivity analysis (§4.2): LFSR taps and AND-bit selection"
    "Paper: variation across four 32-bit tap configurations and across\n\
     bit-selection choices is below the noise of re-seeding the LFSR.";
  let bench = "jython" in
  let interval = 1024 in
  let spec = Bor_workload.Dacapo.spec ~scale:!scale bench in
  let events = Bor_workload.Dacapo.events spec in
  let seed_list = List.init !seeds (fun i -> 0x1111 + (i * 7919)) in
  let summary ?taps ?select () =
    Bor_sampling.Experiment.accuracy_summary
      (fun seed ->
        Bor_sampling.Sampler.branch_on_random
          ~engine:(Bor_core.Engine.create ?taps ?select ~seed ())
          (Bor_core.Freq.of_period interval))
      events ~seeds:seed_list
  in
  let baseline = summary () in
  let describe label (s : Bor_util.Stats.summary) =
    [
      label;
      Bor_util.Table.pct s.mean;
      Printf.sprintf "±%.2f%%" (100. *. Bor_util.Stats.ci95_halfwidth s);
      (if Bor_util.Stats.overlaps baseline s then "yes" else "NO");
    ]
  in
  let tap_rows =
    List.map
      (fun taps ->
        describe
          (Format.asprintf "taps %a" Bor_lfsr.Taps.pp taps)
          (summary ~taps ()))
      Bor_lfsr.Taps.paper_32bit
  in
  let select_rows =
    [
      describe "bits: spaced (default)"
        (summary ~select:Bor_lfsr.Bit_select.Spaced ());
      describe "bits: contiguous"
        (summary ~select:Bor_lfsr.Bit_select.Contiguous ());
    ]
  in
  table ~headers:[ "configuration"; "accuracy"; "95% ci"; "within noise?" ]
    ((describe "20-bit default (baseline)" baseline :: tap_rows) @ select_rows);
  printf "\n(jython stream, interval 2^10, %d seeds per configuration)\n" !seeds

(* ------------------------------------------------ timing-run machinery *)

(* Domain-local like the experiment context: the --jobs pool resets it
   before each experiment so pooled output cannot depend on which
   worker ran what earlier. *)
let timing_cache_key : (string, Bor_uarch.Pipeline.stats) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let timing_cache () = Domain.DLS.get timing_cache_key

let run_timing key (compiled : Bor_minic.Driver.compiled) =
  match Hashtbl.find_opt (timing_cache ()) key with
  | Some st -> st
  | None ->
    let t = Bor_uarch.Pipeline.create compiled.program in
    let st =
      match Bor_uarch.Pipeline.run t with
      | Ok st -> st
      | Error e -> failwith (key ^ ": " ^ e)
    in
    Hashtbl.replace (timing_cache ()) key st;
    st

let micro_stats ?payload framework key =
  run_timing
    (Printf.sprintf "micro-%d-%s" !chars key)
    (Bor_workload.Micro.compile ~chars:!chars ?payload framework)

let overhead base st =
  Float.of_int (st.Bor_uarch.Pipeline.cycles - base.Bor_uarch.Pipeline.cycles)
  /. Float.of_int base.Bor_uarch.Pipeline.cycles

(* ------------------------------------------------------------ Figure 12 *)

let fig12 () =
  section
    "Figure 12: framework overhead on applications (Full-Duplication, 1/1024)"
    "Paper: counter-based sampling averages ~5% overhead on the DaCapo\n\
     subset; branch-on-random averages 0.64% -- almost an order of\n\
     magnitude less. Applications here are the minic analogues\n\
     (DESIGN.md); both frameworks sample method execution frequencies.";
  let rows = ref [] in
  let totals = ref (0., 0.) in
  List.iter
    (fun name ->
      let run key fw =
        run_timing
          (Printf.sprintf "app-%s-%s" name key)
          (Bor_workload.Apps.compile name fw)
      in
      let base = run "plain" Bor_minic.Instrument.No_instrumentation in
      let cbs =
        run "cbs"
          Bor_minic.Instrument.(Sampled (Counter 1024, Full_duplication))
      in
      let brr =
        run "brr"
          Bor_minic.Instrument.(
            Sampled (Brr (Bor_core.Freq.of_period 1024), Full_duplication))
      in
      let oc = overhead base cbs and ob = overhead base brr in
      totals := (fst !totals +. oc, snd !totals +. ob);
      rows :=
        [
          name;
          string_of_int base.cycles;
          Bor_util.Table.pct oc;
          Bor_util.Table.pct ob;
          (* brr's overhead can be within noise of zero; a ratio is then
             meaningless. *)
          (if ob > 0.001 then Bor_util.Table.f2 (oc /. ob) else ">100");
        ]
        :: !rows)
    Bor_workload.Apps.names;
  let n = Float.of_int (List.length Bor_workload.Apps.names) in
  let avg_c = fst !totals /. n and avg_b = snd !totals /. n in
  table ~headers:
      [
        "application"; "base cycles"; "counter-based"; "branch-on-random";
        "ratio";
      ]
    (List.rev !rows
    @ [
        [
          "average"; ""; Bor_util.Table.pct avg_c; Bor_util.Table.pct avg_b;
          Bor_util.Table.f2 (avg_c /. avg_b);
        ];
      ]);
  (* Beyond the paper: the three DaCapo members Jikes/Simics could not
     run (paper footnote 8) run fine on this substrate. *)
  let extra =
    List.filter
      (fun n -> not (List.mem n Bor_workload.Apps.names))
      Bor_workload.Apps.all_names
  in
  printf
    "
bonus: the applications the paper could not run (footnote 8):

";
  table ~headers:
      [ "application"; "base cycles"; "counter-based"; "branch-on-random" ]
    (List.map
       (fun name ->
         let run key fw =
           run_timing
             (Printf.sprintf "app-%s-%s" name key)
             (Bor_workload.Apps.compile name fw)
         in
         let base = run "plain" Bor_minic.Instrument.No_instrumentation in
         let cbs =
           run "cbs"
             Bor_minic.Instrument.(Sampled (Counter 1024, Full_duplication))
         in
         let brr =
           run "brr"
             Bor_minic.Instrument.(
               Sampled (Brr (Bor_core.Freq.of_period 1024), Full_duplication))
         in
         [
           name;
           string_of_int base.cycles;
           Bor_util.Table.pct (overhead base cbs);
           Bor_util.Table.pct (overhead base brr);
         ])
       extra)

(* --------------------------------------------------- Figures 13 and 14 *)

let sweep_intervals = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

type sweep_point = {
  interval : int;
  cbs_nd : float * float;  (** framework-only, +inst overhead ratios *)
  brr_nd : float * float;
  cbs_fd : float * float;
  brr_fd : float * float;
  cyc_cbs_fd : float * float;  (** cycles per site: framework, +inst *)
  cyc_brr_fd : float * float;
  cyc_cbs_nd : float;  (** framework-only, No-Duplication *)
  cyc_brr_nd : float;
}

let micro_sweep_key = Domain.DLS.new_key (fun () -> ref None)
let micro_sweep () = Domain.DLS.get micro_sweep_key

let get_sweep () =
  match !(micro_sweep ()) with
  | Some s -> s
  | None ->
    let base = micro_stats Bor_minic.Instrument.No_instrumentation "base" in
    (* Dynamic site visits, from the functional simulator. *)
    let visits =
      let compiled =
        Bor_workload.Micro.compile ~chars:!chars Bor_minic.Instrument.Full
      in
      let m = Bor_sim.Machine.create compiled.program in
      let n = ref 0 in
      Bor_sim.Machine.on_site m (fun _ -> incr n);
      (match Bor_sim.Machine.run m with
      | Ok _ -> ()
      | Error e -> failwith e);
      !n
    in
    let points =
      List.map
        (fun interval ->
          let counter = Bor_minic.Instrument.Counter interval in
          let brr =
            Bor_minic.Instrument.Brr (Bor_core.Freq.of_period interval)
          in
          let pair check dup tag =
            let fw = Bor_minic.Instrument.Sampled (check, dup) in
            let frameonly =
              micro_stats ~payload:Bor_minic.Instrument.Empty_payload fw
                (Printf.sprintf "%s-%d-frame" tag interval)
            in
            let withinst =
              micro_stats fw (Printf.sprintf "%s-%d-inst" tag interval)
            in
            (frameonly, withinst)
          in
          let ov (a, b) = (overhead base a, overhead base b) in
          let cyc (a, b) =
            let per (st : Bor_uarch.Pipeline.stats) =
              Float.of_int (st.cycles - base.cycles) /. Float.of_int visits
            in
            (per a, per b)
          in
          let cbs_nd = pair counter Bor_minic.Instrument.No_duplication "cn" in
          let brr_nd = pair brr Bor_minic.Instrument.No_duplication "bn" in
          let cbs_fd =
            pair counter Bor_minic.Instrument.Full_duplication "cf"
          in
          let brr_fd = pair brr Bor_minic.Instrument.Full_duplication "bf" in
          {
            interval;
            cbs_nd = ov cbs_nd;
            brr_nd = ov brr_nd;
            cbs_fd = ov cbs_fd;
            brr_fd = ov brr_fd;
            cyc_cbs_fd = cyc cbs_fd;
            cyc_brr_fd = cyc brr_fd;
            cyc_cbs_nd = fst (cyc cbs_nd);
            cyc_brr_nd = fst (cyc brr_nd);
          })
        sweep_intervals
    in
    let result = (base, visits, points) in
    micro_sweep () := Some result;
    result

let fig13 () =
  section "Figure 13: microbenchmark overhead vs sampling interval"
    "Paper: counter-based curves stay high (tens of percent) while\n\
     branch-on-random falls fast with the interval; Full-Duplication\n\
     lowers both families. Plain columns = framework only, (+i) = with\n\
     the edge-profiling payload.";
  let base, visits, points = get_sweep () in
  printf "baseline: %d cycles, IPC %.2f, %d dynamic sites\n\n"
    base.cycles (Bor_uarch.Pipeline.ipc base) visits;
  let p (a, b) = [ Bor_util.Table.pct a; Bor_util.Table.pct b ] in
  table ~headers:
      [
        "interval"; "cbs nd"; "cbs nd+i"; "brr nd"; "brr nd+i"; "cbs fd";
        "cbs fd+i"; "brr fd"; "brr fd+i";
      ]
    (List.map
       (fun pt ->
         (string_of_int pt.interval :: p pt.cbs_nd)
         @ p pt.brr_nd @ p pt.cbs_fd @ p pt.brr_fd)
       points)

let fig14 () =
  section "Figure 14: average cycles per sampling site (Full-Duplication)"
    "Paper: branch-on-random costs 3.19 cycles/site at 50% and falls\n\
     toward ~0.1; counter-based stays flat around ~2.2, 10-20x more at\n\
     intervals above 64. The counter is cheapest at very small intervals\n\
     (its short period fits the global history) -- the same learnability\n\
     effect appears here in the mispredict counts.";
  let _, _, points = get_sweep () in
  table ~headers:[ "interval"; "cbs"; "cbs + inst"; "brr"; "brr + inst"; "ratio" ]
    (List.map
       (fun pt ->
         [
           string_of_int pt.interval;
           Bor_util.Table.f2 (fst pt.cyc_cbs_fd);
           Bor_util.Table.f2 (snd pt.cyc_cbs_fd);
           Bor_util.Table.f2 (fst pt.cyc_brr_fd);
           Bor_util.Table.f2 (snd pt.cyc_brr_fd);
           Bor_util.Table.f2 (fst pt.cyc_cbs_fd /. fst pt.cyc_brr_fd);
         ])
       points);
  (match points with
  | first :: _ when first.interval = 2 ->
    printf
      "\nNo-Duplication framework at 50%%: brr %.2f cycles/site (paper:\n\
       3.19 = half a front-end flush plus two extra instructions);\n\
       cbs %.2f cycles/site.\n"
      first.cyc_brr_nd first.cyc_cbs_nd
  | _ -> ())

(* ------------------------------------------------------- §5.3 baseline *)

let baseline () =
  section "Microbenchmark baseline characterisation (§5.3)"
    "Paper: branch prediction 84.5%, caches hit >99.5%, fetch at its\n\
     maximum 67% of cycles, mispredict handling 29.5% of cycles.";
  let st = micro_stats Bor_minic.Instrument.No_instrumentation "base" in
  let pct_of_cycles v =
    Bor_util.Table.pct (Float.of_int v /. Float.of_int st.cycles)
  in
  table ~headers:[ "metric"; "value" ]
    [
      [ "cycles"; string_of_int st.cycles ];
      [ "instructions"; string_of_int st.instructions ];
      [ "IPC"; Bor_util.Table.f2 (Bor_uarch.Pipeline.ipc st) ];
      [
        "branch prediction accuracy";
        Bor_util.Table.pct (Bor_uarch.Pipeline.branch_accuracy st);
      ];
      [ "conditional branches"; string_of_int st.cond_branches ];
      [ "L1I misses"; string_of_int st.l1i_misses ];
      [ "L1D misses"; string_of_int st.l1d_misses ];
      [ "L2 misses"; string_of_int st.l2_misses ];
      [ "full fetch packets"; pct_of_cycles st.cycles_fetch_full ];
      [ "decode starved"; pct_of_cycles st.cycles_decode_starved ];
      [ "ROB-full stalls"; pct_of_cycles st.cycles_rob_full ];
      [
        "mean ROB occupancy";
        Bor_util.Table.f2
          (Float.of_int st.rob_occupancy /. Float.of_int st.cycles);
      ];
    ];
  (* Compiler-quality aside: the same loop scheduled by hand. *)
  let hand = Bor_workload.Micro.assemble_hand ~chars:!chars () in
  let t = Bor_uarch.Pipeline.create hand in
  match Bor_uarch.Pipeline.run t with
  | Error e -> failwith e
  | Ok h ->
    printf
      "\nhand-scheduled assembly version: %d cycles (minic: %d; the \
       compiler is within %.0f%%)\n"
      h.cycles st.cycles
      (100.
      *. Float.of_int (st.cycles - h.cycles)
      /. Float.of_int h.cycles)

(* --------------------------------------------------------- §3.3 hwcost *)

let hwcost () =
  section "Hardware cost model (§3.3 summary)"
    "Paper: roughly 20 bits of state and <100 gates single-issue; <100\n\
     bits and <=400 gates for a 4-wide superscalar.";
  let open Bor_core.Hwcost in
  let rows cfg name =
    let b = estimate cfg in
    [
      name;
      string_of_int b.state_bits;
      string_of_int b.gates_lfsr_feedback;
      string_of_int b.gates_and_tree;
      string_of_int b.gates_mux;
      string_of_int b.gates_arbitration;
      string_of_int b.gates_control;
      string_of_int b.gates_total;
    ]
  in
  table ~headers:
      [ "configuration"; "state"; "xor"; "and"; "mux"; "arb"; "ctl"; "total" ]
    [
      rows single_issue "single-issue (20-bit)";
      rows four_wide "4-wide, replicated";
      rows { four_wide with sharing = Shared } "4-wide, shared + arbiter";
      rows
        { single_issue with deterministic = true }
        "single-issue, deterministic (3.4)";
      rows { four_wide with decode_width = 8 } "8-wide, replicated";
    ];
  printf "\npaper claims hold: %b\n" (meets_paper_claims ())

(* ---------------------------------------------------- §3.4 determinism *)

let determinism () =
  section "Deterministic implementation (§3.4)"
    "Paper: checkpointing the LFSR (banking shifted-out bits, shifting\n\
     back on squash) makes execution repeatable for post-silicon\n\
     validation; without it, squashed speculative updates lose\n\
     transitions but leave the probabilities intact.";
  let src =
    Bor_workload.Micro.compile ~chars:(min !chars 10_000)
      Bor_minic.Instrument.(
        Sampled (Brr (Bor_core.Freq.of_period 4), Full_duplication))
  in
  (* The committed outcome stream, read off the tracer's [Brr_resolved]
     events. *)
  let outcomes deterministic_lfsr =
    let config = { Bor_uarch.Config.default with deterministic_lfsr } in
    let t = Bor_uarch.Pipeline.create ~config src.program in
    let taken = ref [] in
    Bor_uarch.Pipeline.set_tracer t (function
      | Bor_uarch.Pipeline.Brr_resolved { taken = o; _ } -> taken := o :: !taken
      | _ -> ());
    match Bor_uarch.Pipeline.run t with
    | Ok st -> (List.rev !taken, st)
    | Error e -> failwith e
  in
  let det1, st1 = outcomes true in
  let det2, _ = outcomes true in
  let lossy, _ = outcomes false in
  let rate o =
    Float.of_int (List.length (List.filter Fun.id o))
    /. Float.of_int (max 1 (List.length o))
  in
  table ~headers:[ "metric"; "value" ]
    [
      [ "backend squashes in run"; string_of_int st1.backend_flushes ];
      [ "retired brr outcomes"; string_of_int (List.length det1) ];
      [ "checkpointed repeatable"; string_of_bool (det1 = det2) ];
      [ "lossy = checkpointed stream"; string_of_bool (lossy = det1) ];
      [ "checkpointed take rate (want ~25%)"; Bor_util.Table.pct (rate det1) ];
      [ "lossy take rate (want ~25%)"; Bor_util.Table.pct (rate lossy) ];
    ]

(* ------------------------------------------------------------ ablation *)

let ablation () =
  section "Ablation: the §3.3 design decisions"
    "The paper argues branch-on-random should (a) resolve in decode,\n\
     not the back end, and (b) stay out of the predictor, history and\n\
     BTB (point 6). Each ablation reverts one decision on the\n\
     microbenchmark with the brr framework at 1/16 and 1/256.";
  let base =
    Bor_workload.Micro.compile ~chars:!chars
      Bor_minic.Instrument.No_instrumentation
  in
  let run config (compiled : Bor_minic.Driver.compiled) =
    let t = Bor_uarch.Pipeline.create ~config compiled.program in
    match Bor_uarch.Pipeline.run t with
    | Ok st -> st
    | Error e -> failwith e
  in
  let base_st = run Bor_uarch.Config.default base in
  let rows = ref [] in
  List.iter
    (fun interval ->
      let compiled =
        Bor_workload.Micro.compile ~chars:!chars
          Bor_minic.Instrument.(
            Sampled (Brr (Bor_core.Freq.of_period interval), No_duplication))
      in
      List.iter
        (fun (name, config) ->
          let st = run config compiled in
          rows :=
            [
              Printf.sprintf "1/%d %s" interval name;
              Bor_util.Table.pct (overhead base_st st);
              Bor_util.Table.pct (Bor_uarch.Pipeline.branch_accuracy st);
              string_of_int st.frontend_flushes;
              string_of_int st.backend_flushes;
            ]
            :: !rows)
        [
          ("paper design", Bor_uarch.Config.default);
          ( "backend-resolved",
            { Bor_uarch.Config.default with brr_resolve_in_backend = true } );
          ( "in-predictor",
            { Bor_uarch.Config.default with brr_in_predictor = true } );
          ( "both ablations",
            {
              Bor_uarch.Config.default with
              brr_in_predictor = true;
              brr_resolve_in_backend = true;
            } );
        ])
    [ 16; 256 ];
  table ~headers:
      [ "configuration"; "overhead"; "branch acc"; "fe flush"; "be flush" ]
    (List.rev !rows)

(* -------------------------------------------------- compiled accuracy *)

let accuracy_compiled () =
  section "Accuracy through compiled programs (§4.1 methodology)"
    "The paper collects accuracy with real executions: the SAME binary\n\
     compiled with the brr framework runs once with the hardware LFSR\n\
     and once in the deterministic every-Nth mode (the 'hw count' of\n\
     Figures 9/10); the counter framework is a separate build. Overlap\n\
     accuracy vs the functional ground truth, interval 1/64.";
  let interval = 64 in
  let rows =
    List.map
      (fun name ->
        let ground = Bor_sampling.Profile.create () in
        let accuracy_of compiled mode =
          let m =
            match mode with
            | None -> Bor_sim.Machine.create compiled.Bor_minic.Driver.program
            | Some brr_mode ->
              Bor_sim.Machine.create ~brr_mode
                compiled.Bor_minic.Driver.program
          in
          Bor_sampling.Profile.clear ground;
          Bor_sim.Machine.on_site m (fun id ->
              Bor_sampling.Profile.record ground id);
          (match Bor_sim.Machine.run ~max_steps:80_000_000 m with
          | Ok _ -> ()
          | Error e -> failwith e);
          let sampled = Bor_sampling.Profile.create () in
          List.iter
            (fun (id, n) -> Bor_sampling.Profile.record_many sampled id n)
            (Bor_minic.Driver.read_profile compiled m);
          Bor_sampling.Profile.accuracy ~full:ground ~sampled
        in
        let cbs_build =
          Bor_workload.Apps.compile name
            Bor_minic.Instrument.(Sampled (Counter interval, No_duplication))
        in
        let brr_build =
          Bor_workload.Apps.compile name
            Bor_minic.Instrument.(
              Sampled (Brr (Bor_core.Freq.of_period interval), No_duplication))
        in
        [
          name;
          Bor_util.Table.pct (accuracy_of cbs_build None);
          Bor_util.Table.pct
            (accuracy_of brr_build (Some Bor_sim.Machine.Fixed_interval));
          Bor_util.Table.pct
            (accuracy_of brr_build
               (Some
                  (Bor_sim.Machine.Hardware
                     (Bor_core.Engine.create ~seed:0x7777 ()))));
        ])
      Bor_workload.Apps.all_names
  in
  table ~headers:[ "application"; "sw count"; "hw count"; "random" ]
    rows

(* -------------------------------------------------------------- widths *)

let widths () =
  section "Machine-width sweep (beyond the paper)"
    "The paper estimates hardware cost from 1-wide to 4-wide (§3.3); here\n\
     the performance side: the narrower the machine, the more the\n\
     counter framework's extra instructions cost, while branch-on-random\n\
     stays a single fetch slot. Microbenchmark, framework only, 1/64.";
  let configs =
    [
      ( "1-wide",
        {
          Bor_uarch.Config.default with
          fetch_width = 1;
          decode_width = 1;
          issue_width = 1;
          commit_width = 1;
          mem_ports = 1;
          rob_entries = 16;
        } );
      ( "2-wide",
        {
          Bor_uarch.Config.default with
          fetch_width = 2;
          decode_width = 2;
          issue_width = 2;
          commit_width = 2;
          mem_ports = 1;
          rob_entries = 40;
        } );
      ("4-wide (paper)", Bor_uarch.Config.default);
      ( "8-wide",
        {
          Bor_uarch.Config.default with
          fetch_width = 6;
          decode_width = 8;
          issue_width = 8;
          commit_width = 8;
          mem_ports = 4;
          rob_entries = 160;
        } );
    ]
  in
  let compile fw =
    Bor_workload.Micro.compile ~chars:!chars
      ~payload:Bor_minic.Instrument.Empty_payload fw
  in
  let base = compile Bor_minic.Instrument.No_instrumentation in
  let cbs =
    compile Bor_minic.Instrument.(Sampled (Counter 64, No_duplication))
  in
  let brr =
    compile
      Bor_minic.Instrument.(
        Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))
  in
  let cycles config (c : Bor_minic.Driver.compiled) =
    let t = Bor_uarch.Pipeline.create ~config c.program in
    match Bor_uarch.Pipeline.run t with
    | Ok st -> st.cycles
    | Error e -> failwith e
  in
  table ~headers:
      [ "machine"; "base cycles"; "counter-based"; "branch-on-random";
        "ratio" ]
    (List.map
       (fun (name, config) ->
         let b = cycles config base in
         let oc =
           Float.of_int (cycles config cbs - b) /. Float.of_int b
         in
         let ob =
           Float.of_int (cycles config brr - b) /. Float.of_int b
         in
         [
           name; string_of_int b; Bor_util.Table.pct oc;
           Bor_util.Table.pct ob; Bor_util.Table.f2 (oc /. ob);
         ])
       configs)

(* ----------------------------------------------------- §7 convergent *)

let convergent () =
  section "Convergent and per-site profiling (§7)"
    "The paper's closing proposal: start fast, anneal as the profile\n\
     converges, re-encode each brr's own frequency field. Here each\n\
     policy profiles the same xalan-like stream; the prize is accuracy\n\
     per sample taken.";
  let spec = Bor_workload.Dacapo.spec ~scale:!scale "xalan" in
  let events = Bor_workload.Dacapo.events spec in
  let score name visit_fn profile_of samples_of =
    let full = Bor_sampling.Profile.create () in
    events (fun site ->
        Bor_sampling.Profile.record full site;
        visit_fn site);
    let sampled = profile_of () in
    [
      name;
      string_of_int (samples_of ());
      Bor_util.Table.pct (Bor_sampling.Profile.accuracy ~full ~sampled);
    ]
  in
  let fixed period =
    let sampler =
      Bor_sampling.Sampler.branch_on_random
        ~engine:(Bor_core.Engine.create ~seed:0x1357 ())
        (Bor_core.Freq.of_period period)
    in
    let profile = Bor_sampling.Profile.create () in
    score
      (Printf.sprintf "fixed 1/%d" period)
      (fun site ->
        if Bor_sampling.Sampler.visit sampler then
          Bor_sampling.Profile.record profile site)
      (fun () -> profile)
      (fun () -> Bor_sampling.Profile.total profile)
  in
  let conv =
    let c =
      Bor_sampling.Convergent.create
        ~engine:(Bor_core.Engine.create ~seed:0x1357 ())
        ()
    in
    score "convergent (global)"
      (fun site -> ignore (Bor_sampling.Convergent.visit c site))
      (fun () -> Bor_sampling.Convergent.profile c)
      (fun () -> Bor_sampling.Convergent.samples c)
  in
  let per_site =
    let ps =
      Bor_sampling.Per_site.create
        ~engine:(Bor_core.Engine.create ~seed:0x1357 ())
        ()
    in
    (* Per-site rates are deliberately non-uniform, so the raw sample
       counts are biased by design; the unbiased Horvitz-Thompson
       visit-count estimates are what the profile reports. *)
    score "convergent (per-site)"
      (fun site -> ignore (Bor_sampling.Per_site.visit ps site))
      (fun () ->
        let estimated = Bor_sampling.Profile.create () in
        List.iter
          (fun (site, est) ->
            Bor_sampling.Profile.record_many estimated site
              (max 0 (Float.to_int est)))
          (Bor_sampling.Per_site.estimated_counts ps);
        estimated)
      (fun () -> Bor_sampling.Per_site.samples ps)
  in
  table ~headers:[ "policy"; "samples"; "accuracy" ]
    [ fixed 2; fixed 64; fixed 1024; conv; per_site ]

(* -------------------------------------------------------------- warming *)

(* Functional-warming throughput: the block translation cache
   (Config.warm_block_cache, docs/WARMING.md) against the single-step
   reference path, per experiment kernel. Host timing, so
   digest-excluded — but the cross-check is simulated behavior: both
   paths must leave bit-identical warmed structures and count the same
   warming mispredicts, or the experiment fails (the "identical"
   column can only read "yes"). The block path must also run nearly
   everything: a kernel whose "fallback" single-steps exceed 1% of its
   warmed instructions fails the row, since the single-step path alone
   is fast enough to pass a throughput floor.
   BOR_WARM_FLOOR_MIPS=<float> turns the alu-loop row into a smoke
   gate: the run fails if block-mode throughput drops below the floor
   (the committed floor lives in .github/workflows/ci.yml). *)

(* BOR_WARM_FLOOR_MIPS, validated at start-up with the CLI flags. *)
let warm_floor = ref None

let alu_loop_src =
  "int main() { int i; int s = 0; for (i = 0; i < 1000000; i = i + 1) s = \
   s + i; return s; }"

let warming_row name prog =
  let best_of_3 block =
    let best = ref None in
    for _ = 1 to 3 do
      let config =
        { Bor_uarch.Config.default with warm_block_cache = block }
      in
      let t = Bor_uarch.Pipeline.create ~config prog in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let n = Bor_uarch.Pipeline.run_warming t in
      let dt = Unix.gettimeofday () -. t0 in
      match !best with
      | Some (_, _, d) when d <= dt -> ()
      | _ -> best := Some (t, n, dt)
    done;
    match !best with Some r -> r | None -> assert false
  in
  let t_ss, n_ss, d_ss = best_of_3 false in
  let t_bc, n_bc, d_bc = best_of_3 true in
  if n_ss <> n_bc then
    failwith (name ^ ": warmed instruction counts diverge between paths");
  if
    Bor_uarch.Pipeline.state_digests t_ss
    <> Bor_uarch.Pipeline.state_digests t_bc
  then failwith (name ^ ": warmed state digests diverge between paths");
  if
    (Bor_uarch.Pipeline.warm t_ss).mispredicts
    <> (Bor_uarch.Pipeline.warm t_bc).mispredicts
  then failwith (name ^ ": warming mispredict counts diverge between paths");
  let bs =
    match Bor_uarch.Pipeline.block_cache t_bc with
    | Some bc -> Bor_uarch.Block.stats bc
    | None -> failwith (name ^ ": block cache never engaged")
  in
  if bs.Bor_uarch.Block.fallback_steps * 100 > n_bc then
    failwith
      (Printf.sprintf "%s: %d of %d instructions single-stepped (over 1%%)"
         name bs.Bor_uarch.Block.fallback_steps n_bc);
  let mips = Float.of_int n_bc /. d_bc /. 1e6 in
  ( mips,
    [
      name;
      string_of_int n_bc;
      Printf.sprintf "%.1f" (Float.of_int n_ss /. d_ss /. 1e6);
      Printf.sprintf "%.1f" mips;
      Printf.sprintf "%.1fx" (d_ss /. d_bc);
      "yes";
      string_of_int bs.Bor_uarch.Block.compiled;
      string_of_int bs.Bor_uarch.Block.hits;
      string_of_int bs.Bor_uarch.Block.fallback_steps;
    ] )

let warming () =
  section "Functional-warming throughput (block cache vs single-step)"
    "Warmed instructions per second of wall-clock time with the block\n\
     translation cache on and off (best of 3 runs each), per\n\
     experiment kernel, plus the bit-identical-state cross-check the\n\
     warming-equivalence tests enforce. Host timing, so\n\
     digest-excluded.";
  let brr64 =
    Bor_minic.Instrument.(
      Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))
  in
  let mchars = max !chars 200_000 in
  let rows =
    warming_row "alu-loop"
      (Bor_minic.Driver.compile_exn alu_loop_src).Bor_minic.Driver.program
    :: warming_row
         (Printf.sprintf "micro-%d" mchars)
         (Bor_workload.Micro.compile ~chars:mchars brr64)
           .Bor_minic.Driver.program
    :: List.map
         (fun n ->
           warming_row n
             (Bor_workload.Apps.compile n brr64).Bor_minic.Driver.program)
         Bor_workload.Apps.all_names
  in
  table
    ~headers:
      [
        "kernel"; "instructions"; "single-step M/s"; "block M/s"; "speedup";
        "identical"; "blocks"; "hits"; "fallback";
      ]
    (List.map snd rows);
  match !warm_floor with
  | None -> ()
  | Some floor ->
    let alu_mips = fst (List.hd rows) in
    if alu_mips < floor then
      failwith
        (Printf.sprintf
           "warming throughput smoke: alu-loop at %.1f M instr/s is below \
            the committed floor of %.1f"
           alu_mips floor)
    else
      printf "\n(smoke: alu-loop %.1f M instr/s >= floor %.1f)\n" alu_mips
        floor

(* -------------------------------------------------------------- ranked *)

(* Two-phase kernel for the ranked experiment: predictable ALU stretches
   alternating with data-dependent-branch stretches, at a granularity of
   a few sampling periods — so fixed-period windows draw from a bimodal
   CPI distribution that the warming-signature ranking can stratify. *)
let phased_src =
  "int calm(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) s = s \
   + i * 3; return s; }\n\
   int storm(int n, int x) { int i; int s = 0; for (i = 0; i < n; i = i + \
   1) { if ((s ^ i) & 1) s = s + x; else s = s - i; x = x + s; } return s; \
   }\n\
   int main() { int r; int s = 0; for (r = 0; r < 24; r = r + 1) { if (r % \
   2) s = s + storm(1500, r); else s = s + calm(1500); } return s; }"

(* Ranked-set selection (docs/SAMPLING.md) against fixed-period
   sampling on the cycle-estimate error, per kernel. The ranked run
   uses bands K at period P — about a 1/K window budget; the fixed runs
   sweep periods P, 2P and 4P (full, half and quarter budget). "fixed
   to match" is the cheapest fixed-period budget whose error is no
   worse than the ranked run's, and the ratio of the two budgets is the
   measured variance-reduction factor (the acceptance bar is >= 2x on
   the phase-heterogeneous kernels; a flat kernel like alu-loop is
   included as the control where ranking cannot help). Every number
   here is simulated and plan-deterministic, so the tables are in
   DIGESTS.txt; the determinism contract is also asserted hard: each
   ranked run is re-run at 2 window domains and any byte difference
   aborts the bench. *)
let ranked () =
  section "Ranked-set window selection vs fixed-period sampling"
    "Cycle-estimate error of ranked-set selection (--rank-bands K,\n\
     1/K of the window budget) against fixed-period plans at the same,\n\
     half and quarter budget, per kernel — plus the matched-error\n\
     budget ratio, the measured variance-reduction factor.";
  let bands = 4 in
  let plan =
    match Bor_uarch.Sampling_plan.of_string "500:200:4000:13" with
    | Ok p -> p
    | Error e -> failwith e
  in
  printf "\n(plan %s, bands %d)\n"
    (Bor_uarch.Sampling_plan.to_string plan)
    bands;
  let scale k =
    match
      Bor_uarch.Sampling_plan.make
        ?seed:plan.Bor_uarch.Sampling_plan.seed
        ~warmup:plan.Bor_uarch.Sampling_plan.warmup
        ~window:plan.Bor_uarch.Sampling_plan.window
        ~period:(k * plan.Bor_uarch.Sampling_plan.period)
        ()
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let ranked =
    match Bor_uarch.Sampling_plan.with_selection ~rank_bands:bands plan with
    | Ok p -> p
    | Error e -> failwith e
  in
  let matched = ref 0 in
  let row name prog =
    let full = Bor_uarch.Pipeline.create prog in
    (match Bor_uarch.Pipeline.run full with
    | Ok _ -> ()
    | Error e -> failwith (name ^ ": " ^ e));
    let truth = Float.of_int (Bor_uarch.Pipeline.cycle full) in
    let instr =
      (Bor_sim.Machine.stats (Bor_uarch.Pipeline.oracle full))
        .Bor_sim.Machine.instructions
    in
    let run_sampled ?domains p =
      let t = Bor_uarch.Pipeline.create prog in
      match Bor_exec.Sampled.run_on ?domains ~plan:p t with
      | Ok s -> s
      | Error e -> failwith (name ^ " (sampled): " ^ e)
    in
    let open Bor_exec.Sampled in
    let err s = Float.abs (s.sp_cycles_estimate -. truth) /. truth in
    let r = run_sampled ranked in
    if run_sampled ~domains:2 ranked <> r then
      failwith
        (name ^ ": ranked stats diverge between 1 and 2 window domains");
    let fixed = List.map (fun k -> run_sampled (scale k)) [ 1; 2; 4 ] in
    (match fixed with
    | at_p :: _ when r.sp_windows > at_p.sp_windows ->
      failwith (name ^ ": ranked selection exceeded the fixed-period budget")
    | _ -> ());
    let e_r = err r in
    let cheapest =
      List.fold_left
        (fun best s ->
          if err s <= e_r then
            match best with
            | Some b when b.sp_windows <= s.sp_windows -> best
            | _ -> Some s
          else best)
        None fixed
    in
    let to_match, ratio =
      match cheapest with
      | Some s ->
        let x = Float.of_int s.sp_windows /. Float.of_int r.sp_windows in
        (string_of_int s.sp_windows, Printf.sprintf "%.1fx" x)
      | None ->
        (* Even the full-budget fixed plan is less accurate: matching
           the ranked error would take more windows still. *)
        let w = (List.hd fixed).sp_windows in
        let x = Float.of_int w /. Float.of_int r.sp_windows in
        (Printf.sprintf ">%d" w, Printf.sprintf ">=%.1fx" x)
    in
    let won =
      match cheapest with
      | Some s -> s.sp_windows >= 2 * r.sp_windows
      | None -> (List.hd fixed).sp_windows >= 2 * r.sp_windows
    in
    if won then incr matched;
    let pct e = Printf.sprintf "%.2f%%" (100. *. e) in
    [
      name;
      string_of_int instr;
      Printf.sprintf "%d" r.sp_windows;
      pct e_r;
    ]
    @ List.concat_map
        (fun s -> [ string_of_int s.sp_windows; pct (err s) ])
        fixed
    @ [ to_match; ratio ]
  in
  let brr64 =
    Bor_minic.Instrument.(
      Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))
  in
  let mchars = max (min !chars 60_000) 8_000 in
  table
    ~headers:
      [
        "kernel"; "instructions"; "rk win"; "rk err"; "fx win"; "fx err";
        "fx/2 win"; "fx/2 err"; "fx/4 win"; "fx/4 err"; "fixed to match";
        "ratio";
      ]
    [
      (* Smaller than [alu_loop_src]: the control only has to show a
         flat kernel gains nothing, and it pays 7 full-length runs. *)
      row "alu-loop-200k"
        (Bor_minic.Driver.compile_exn
           "int main() { int i; int s = 0; for (i = 0; i < 200000; i = i + \
            1) s = s + i; return s; }")
          .Bor_minic.Driver.program;
      row "phased"
        (Bor_minic.Driver.compile_exn phased_src).Bor_minic.Driver.program;
      row
        (Printf.sprintf "micro-%d" mchars)
        (Bor_workload.Micro.compile ~chars:mchars brr64)
          .Bor_minic.Driver.program;
      row "jython"
        (Bor_workload.Apps.compile "jython" brr64).Bor_minic.Driver.program;
      row "bloat"
        (Bor_workload.Apps.compile "bloat" brr64).Bor_minic.Driver.program;
    ];
  printf
    "\n%d kernels reach the fixed-period error at >= 2x fewer detailed \
     windows\n"
    !matched

(* ----------------------------------------------------------- JSON dump *)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let json_of_table (headers, rows) =
  Json.Obj
    [
      ("headers", Json.List (List.map (fun h -> Json.String h) headers));
      ( "rows",
        Json.List
          (List.map
             (fun r -> Json.List (List.map (fun c -> Json.String c) r))
             rows) );
    ]

(* Table cells are the already-formatted strings from the text report,
   so no float ever reaches the JSON serialiser and the digest cannot
   depend on float-printing behaviour. *)
let bench_json name =
  let c = ctx () in
  Json.Obj
    [
      ("schema", Json.String "bor-bench-v1");
      ("experiment", Json.String name);
      ("title", Json.String c.title);
      ("description", Json.String c.paper);
      ( "params",
        Json.Obj
          [
            ("scale", Json.Int !scale);
            ("chars", Json.Int !chars);
            ("seeds", Json.Int !seeds);
          ] );
      ("tables", Json.List (List.rev_map json_of_table c.tables));
      ("telemetry", Telemetry.to_json ());
    ]

(* ------------------------------------------------------------------ CLI *)

let experiments =
  [
    ("fig6", fig6);
    ("fig9", fig9);
    ("fig10", fig10);
    ("sensitivity", sensitivity);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("baseline", baseline);
    ("hwcost", hwcost);
    ("determinism", determinism);
    ("ablation", ablation);
    ("widths", widths);
    ("accuracy-compiled", accuracy_compiled);
    ("convergent", convergent);
    ("warming", warming);
    ("ranked", ranked);
  ]

(* Host-timing experiment: never part of DIGESTS.txt. *)
let digest_excluded = [ "warming" ]

(* Every malformed command line exits 2 with the same message. *)
let usage_error msg =
  Printf.eprintf "%s\nknown: %s\n" msg
    (String.concat " " (List.map fst experiments));
  exit 2

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)

let () =
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := int_arg "--scale" v;
      parse rest
    | "--chars" :: v :: rest ->
      chars := int_arg "--chars" v;
      parse rest
    | "--seeds" :: v :: rest ->
      seeds := int_arg "--seeds" v;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := max 1 (int_arg "--jobs" v);
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--json" :: dir :: rest ->
      json_dir := Some dir;
      parse rest
    | "all" :: rest -> parse rest
    | name :: rest when List.mem_assoc name experiments ->
      selected := name :: !selected;
      parse rest
    | name :: _ -> usage_error ("unknown experiment " ^ name)
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match Sys.getenv_opt "BOR_WARM_FLOOR_MIPS" with
  | None -> ()
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> warm_floor := Some f
    | None ->
      usage_error
        (Printf.sprintf "BOR_WARM_FLOOR_MIPS expects a number, got %S" v)));
  let to_run =
    if !selected = [] then experiments
    else List.filter (fun (n, _) -> List.mem n !selected) experiments
  in
  (match !json_dir with
  | Some dir ->
    ensure_dir dir;
    (* Telemetry must be on before the first experiment creates any
       simulator component; instruments register at creation time. *)
    Telemetry.set_enabled true
  | None -> ());
  (match !csv_dir with Some dir -> ensure_dir dir | None -> ());
  let run_one (name, f) =
    let c = ctx () in
    c.experiment <- name;
    c.title <- "";
    c.paper <- "";
    c.tables <- [];
    (* Isolate each experiment's telemetry. Cross-experiment caches
       (timing_cache, micro_sweep) mean a snapshot depends on which
       experiments ran EARLIER in this process -- the canonical
       experiment order above makes that deterministic per subset. *)
    Telemetry.clear ();
    f ();
    match !json_dir with
    | Some dir when not (List.mem name digest_excluded) ->
      let doc = Json.to_string (bench_json name) in
      let file = "BENCH_" ^ name ^ ".json" in
      let oc = open_out (Filename.concat dir file) in
      output_string oc doc;
      close_out oc
    | _ -> ()
  in
  let read_file = Bor_isa.Toolchain.read_file in
  (* --jobs: run experiments through Bor_exec.Pool, whose caller runs
     experiments too and whose workers are reused across calls. A
     participant buffers its experiment's output in its domain-local
     context; Pool.map lands each buffer in its submission-order slot,
     so replaying after the map can never interleave output.
     Caches are reset before every pooled experiment so each
     BENCH_<name>.json is identical to running that experiment alone —
     the guarantee the fork-based pool this replaced got from one
     process per experiment. *)
  let run_parallel n =
    let failed = Atomic.make false in
    let telemetry_on = !json_dir <> None in
    flush stdout;
    let outputs =
      Bor_exec.Pool.map ~domains:n
        ~init:(fun () ->
          (* A pool helper starts with telemetry off: mirror the
             enable flag before any simulator component registers. *)
          if telemetry_on then Telemetry.set_enabled true)
        (fun ((name, _) as job) ->
          let c = ctx () in
          let buf = Buffer.create 4096 in
          c.out <- Some buf;
          Hashtbl.reset (timing_cache ());
          micro_sweep () := None;
          (try run_one job
           with e ->
             Atomic.set failed true;
             Printf.eprintf "%s: %s\n%!" name (Printexc.to_string e));
          c.out <- None;
          Buffer.contents buf)
        (Array.of_list to_run)
    in
    Array.iter print_string outputs;
    if Atomic.get failed then begin
      Printf.eprintf "bench: an experiment failed\n%!";
      exit 1
    end
  in
  let t0 = Unix.gettimeofday () in
  if !jobs > 1 then run_parallel !jobs else List.iter run_one to_run;
  (match !json_dir with
  | Some dir ->
    let ds =
      List.filter_map
        (fun (name, _) ->
          if List.mem name digest_excluded then None
          else
            let file = "BENCH_" ^ name ^ ".json" in
            Some (Bor_telemetry.Sha256.digest (read_file (Filename.concat dir file)), file))
        to_run
    in
    (match ds with
    | [] -> ()
    | _ ->
      let oc = open_out (Filename.concat dir "DIGESTS.txt") in
      List.iter (fun (d, f) -> Printf.fprintf oc "%s  %s\n" d f) ds;
      close_out oc)
  | None -> ());
  Printf.printf "\n[%d experiment(s), %.1fs]\n" (List.length to_run)
    (Unix.gettimeofday () -. t0)
