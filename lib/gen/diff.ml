module Machine = Bor_sim.Machine
module Pipeline = Bor_uarch.Pipeline
module Backend = Bor_exec.Backend
module Scratch = Bor_exec.Scratch
module Sampled = Bor_exec.Sampled
module Wqueue = Bor_exec.Wqueue
module Check = Bor_check.Check
module Program = Bor_isa.Program
module Reg = Bor_isa.Reg

type failure = { stage : string; reason : string }
type outcome = Pass | Fail of failure | Budget of string

exception Failed of failure
exception Budgeted of string

type snapshot = {
  regs : int array;
  data : int array;  (** every byte of the data segment *)
  counts : int * int * int * int * int * int * int;
}

let snapshot prog m =
  let mem = Machine.memory m in
  let db = prog.Program.data_base in
  let st = Machine.stats m in
  {
    regs = Array.init Reg.count (fun i -> Machine.reg m (Reg.of_int i));
    data =
      Array.init (Bytes.length prog.Program.data) (fun i ->
          Bor_sim.Memory.read_byte mem (db + i));
    counts =
      ( st.instructions, st.loads, st.stores, st.cond_branches, st.cond_taken,
        st.brr_executed, st.brr_taken );
  }

let explain_mismatch ref_name name a b =
  let diff_idx x y =
    let d = ref [] in
    Array.iteri (fun i v -> if v <> y.(i) then d := i :: !d) x;
    List.rev !d
  in
  if a.counts <> b.counts then
    let p (i, l, s, cb, ct, be, bt) =
      Printf.sprintf "instr %d loads %d stores %d cond %d/%d brr %d/%d" i l s
        cb ct be bt
    in
    Printf.sprintf "counts differ: %s [%s] vs %s [%s]" ref_name (p a.counts)
      name (p b.counts)
  else if a.regs <> b.regs then
    Printf.sprintf "registers differ at %s"
      (String.concat ","
         (List.map (fun i -> Reg.name (Reg.of_int i)) (diff_idx a.regs b.regs)))
  else
    Printf.sprintf "data bytes differ at offsets %s"
      (String.concat ","
         (List.map string_of_int (diff_idx a.data b.data)))

(* A timing engine hitting its cycle budget after the reference finished
   fine is treated as the mutant's fault too (pathological CPI from
   all-miss access patterns), not a simulator bug — real hangs would
   also trip the sanitizer's monotonicity checks long before. *)
let is_budget_error e =
  e = "cycle budget exhausted"

let run ?(max_steps = 2_000_000) ?(max_cycles = 20_000_000) ?(plan_seed = 0)
    prog =
  let config =
    { Bor_uarch.Config.default with Bor_uarch.Config.deterministic_lfsr = true }
  in
  let fail stage fmt =
    Printf.ksprintf (fun reason -> raise (Failed { stage; reason })) fmt
  in
  let violation stage v = fail stage "%s" (Check.to_string v) in
  try
    (* Every leg goes through the shared Bor_exec.Backend surface — the
       same constructors and run closures the CLI and bench drivers
       use. Functional reference: External mode fed by a private engine
       gives the in-order branch-on-random stream. It runs on a pooled
       pipeline's memory ([Scratch.with_memory]), scrubbed of only the
       pages an earlier run dirtied, rather than on a new 8 MiB one
       that must be zero-filled; its snapshot is taken before the
       memory goes back. Any error here (step budget, memory fault) is
       the program's own doing — skip. *)
    let reference =
      Scratch.with_memory prog @@ fun mem ->
      let engine =
        Bor_core.Engine.create ~seed:config.Bor_uarch.Config.lfsr_seed ()
      in
      let b =
        Backend.functional ~mem
          ~brr_mode:(Machine.External (Bor_core.Engine.decide engine))
          ~max_steps prog
      in
      (match b.Backend.run () with
      | Ok _ -> ()
      | Error e -> raise (Budgeted e));
      let m = b.Backend.machine () in
      if !Check.on then (
        try Machine.check m with Check.Violation v -> violation "functional" v);
      snapshot prog m
    in
    let against name state =
      if state <> reference then
        fail name "%s" (explain_mismatch "functional" name state reference)
    in
    (* The backends already fold sanitizer violations and oracle faults
       into Error strings; this belt-and-braces wrapper catches the few
       paths outside a run closure (Machine.check above, snapshots). *)
    let guarded stage f =
      try f () with
      | Check.Violation v -> violation stage v
      | Machine.Fault { pc; message } ->
        fail stage "oracle fault at pc 0x%x: %s" pc message
    in
    (* Each leg builds its pipeline on a retired one from the scratch
       pool and retires it there as soon as its final state has been
       compared, on every exit path ([Backend.pooled]): refilling a
       used 8 MiB memory and its tables costs a fraction of allocating
       new ones, and only one leg's pipeline is out of the pool at a
       time. What a leg returns (its report) is a plain value. *)
    let leg stage make =
      Backend.pooled make @@ fun b ->
      let r =
        guarded stage (fun () ->
            match b.Backend.run () with
            | Ok r -> r
            | Error e when is_budget_error e -> raise (Budgeted e)
            | Error e -> fail stage "%s" e)
      in
      against stage (snapshot prog (b.Backend.machine ()));
      r
    in
    let sampled_leg stage make =
      match leg stage make with
      | Backend.Sampled s -> s
      | _ -> fail stage "unexpected report kind"
    in
    ignore
      (leg "pipeline" (fun reuse ->
           Backend.detailed ~config ?reuse ~max_cycles prog));
    (* Two warming legs: the default one exercises the block
       translation cache (on by default), the second forces the
       single-step reference path — so a compilation bug in either
       shows up as a divergence from the functional machine. *)
    ignore
      (leg "warming" (fun reuse -> Backend.warming ~config ?reuse prog));
    ignore
      (leg "warming-singlestep" (fun reuse ->
           Backend.warming
             ~config:{ config with Bor_uarch.Config.warm_block_cache = false }
             ?reuse prog));
    let make_plan ?rank_bands ?ci_target () =
      match
        Bor_uarch.Sampling_plan.make ~seed:plan_seed ?rank_bands ?ci_target
          ~warmup:20 ~window:30 ~period:120 ()
      with
      | Ok p -> p
      | Error e -> fail "plan" "%s" e
    in
    let plan = make_plan () in
    let seq_stats =
      sampled_leg "sampled" (fun reuse ->
          Backend.sampled ~config ?reuse ~plan ~max_cycles ~domains:1 prog)
    in
    (* Fifth leg: the same sampled run with detailed windows spread
       over worker domains (count varied by the seed) must reproduce
       the sequential leg bit for bit — same final architectural state
       and the same sampled statistics, CPI and CI included. *)
    let domains = 2 + (abs plan_seed mod 3) in
    let par_stats =
      sampled_leg "parallel-sampled" (fun reuse ->
          Backend.sampled ~config ?reuse ~plan ~max_cycles ~domains prog)
    in
    if par_stats <> seq_stats then
      fail "parallel-sampled"
        "stats diverge from sequential at %d domains: windows %d vs %d, CPI \
         %.6f vs %.6f, CI %.6f vs %.6f, detailed cycles %d vs %d"
        domains par_stats.Sampled.sp_windows seq_stats.Sampled.sp_windows
        par_stats.Sampled.sp_cpi seq_stats.Sampled.sp_cpi
        par_stats.Sampled.sp_cpi_ci95 seq_stats.Sampled.sp_cpi_ci95
        par_stats.Sampled.sp_detailed_cycles seq_stats.Sampled.sp_detailed_cycles;
    (* Sixth and seventh legs: ranked-set selection with CI stopping
       turned on (bands and domain count varied by the seed). The
       selected-window subset differs from the fixed-period set, so CPI
       is not compared against the legs above — but the sweep still
       warms to program end, so the final architectural state must
       match the functional reference, the parallel run must reproduce
       the sequential one bit for bit, and ranked selection can never
       dispatch more detailed windows than the fixed-period leg did. *)
    let rank_bands = 2 + (abs plan_seed mod 3) in
    let ranked = make_plan ~rank_bands ~ci_target:5. () in
    let ranked_stats =
      sampled_leg "ranked" (fun reuse ->
          Backend.sampled ~config ?reuse ~plan:ranked ~max_cycles ~domains:1
            prog)
    in
    if ranked_stats.Sampled.sp_windows > seq_stats.Sampled.sp_windows then
      fail "ranked"
        "ranked-set selection dispatched more windows than fixed-period: %d \
         vs %d (bands %d)"
        ranked_stats.Sampled.sp_windows seq_stats.Sampled.sp_windows rank_bands;
    let ranked_par_stats =
      sampled_leg "parallel-ranked" (fun reuse ->
          Backend.sampled ~config ?reuse ~plan:ranked ~max_cycles ~domains
            prog)
    in
    if ranked_par_stats <> ranked_stats then
      fail "parallel-ranked"
        "ranked stats diverge from sequential at %d domains (bands %d): \
         windows %d vs %d, CPI %.6f vs %.6f, stopped %b vs %b"
        domains rank_bands ranked_par_stats.Sampled.sp_windows
        ranked_stats.Sampled.sp_windows ranked_par_stats.Sampled.sp_cpi
        ranked_stats.Sampled.sp_cpi ranked_par_stats.Sampled.sp_stopped
        ranked_stats.Sampled.sp_stopped;
    (* Eighth and ninth legs: one window queue shared by two jobs, as
       in bor serve. The same sampled run routed through a standalone Wqueue (zero pool
       workers — the drain help-executes everything) must reproduce the
       sequential leg bit for bit; a second job with the same program
       prefix on the same queue must also reproduce it while executing
       nothing new: every one of its windows is answered by job A's
       finished work units (cross-job shard sharing). *)
    let wq = Wqueue.create () in
    let wq_leg stage job =
      let st =
        sampled_leg stage (fun reuse ->
            Backend.sampled ~config ?reuse ~plan ~max_cycles
              ~runner:(Wqueue.runner wq ~job ~config) prog)
      in
      if st <> seq_stats then
        fail stage
          "stats diverge from sequential through the window queue: windows \
           %d vs %d, CPI %.6f vs %.6f"
          st.Sampled.sp_windows seq_stats.Sampled.sp_windows st.Sampled.sp_cpi
          seq_stats.Sampled.sp_cpi
    in
    wq_leg "wqueue" "job-a";
    let executed_a = Wqueue.executed wq in
    wq_leg "wqueue-shared" "job-b";
    if seq_stats.Sampled.sp_windows > 0 then begin
      if Wqueue.shared_hits wq = 0 then
        fail "wqueue-shared"
          "no cross-job shared work units despite %d windows"
          seq_stats.Sampled.sp_windows;
      if Wqueue.executed wq <> executed_a then
        fail "wqueue-shared"
          "second job re-executed shared windows: %d executions after job A \
           had %d"
          (Wqueue.executed wq) executed_a
    end;
    Pass
  with
  | Failed f -> Fail f
  | Budgeted e -> Budget e
