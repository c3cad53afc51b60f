module Machine = Bor_sim.Machine
module Pipeline = Bor_uarch.Pipeline
module Hierarchy = Bor_uarch.Hierarchy
module Cache = Bor_uarch.Cache
module Sampling_plan = Bor_uarch.Sampling_plan
module Telemetry = Bor_telemetry.Telemetry
module Rank = Bor_sampling.Rank
module Stopping = Bor_sampling.Stopping

type stats = {
  sp_windows : int;
  sp_instructions : int;
  sp_warmed : int;
  sp_detailed : int;
  sp_detailed_cycles : int;
  sp_cpi : float;
  sp_cpi_ci95 : float;
  sp_cycles_estimate : float;
  sp_stopped : bool;
}

let pp ppf s =
  Format.fprintf ppf
    "@[<v>sampled: %d windows over %d instructions (%d warmed, %d \
     detailed, %d detailed cycles)@,CPI %.4f ± %.4f (95%% CI); estimated \
     cycles %.0f%s@]"
    s.sp_windows s.sp_instructions s.sp_warmed s.sp_detailed
    s.sp_detailed_cycles s.sp_cpi s.sp_cpi_ci95 s.sp_cycles_estimate
    (if s.sp_stopped then " [stopped at CI target]" else "")

type window_entry = Window.window_entry = {
  e_result : (Pipeline.window_result, string) result;
  e_tel : Telemetry.export option;
}

(* One detailed window: a pipeline seeded from the checkpoint, built
   on a retired one's buffers from the scratch pool and retired there
   again on every exit. [Pipeline.create ~reuse] refills those buffers
   to their create-time values, so the window is pure in the checkpoint
   (plus the shared config/plan) and runs identically on any domain in
   any order. *)
let window_job ~config ~plan ~max_cycles ~digest prog ck =
  let clone = Pipeline.create ~config ?reuse:(Scratch.take ()) prog in
  Fun.protect ~finally:(fun () -> Scratch.give clone) @@ fun () ->
  match Checkpoint.restore ck ~program_digest:digest clone with
  | Error e -> Error e
  | Ok () ->
    Pipeline.run_window ~max_cycles ~warmup:plan.Sampling_plan.warmup
      ~window:plan.Sampling_plan.window clone

(* ----------------------------------------------- planning / folding

   [run_on] below plans the schedule (the warming sweep) and folds the
   results (the schedule-ordered merge); executing the detailed
   windows in between goes through a [runner] (see {!Window}): inline
   at [domains = 1], a private window queue otherwise, or an external
   one — the serve global window queue — that may execute windows on
   any thread or domain, in any order, interleaved with other jobs'
   windows. The fold does not care: results are merged strictly by
   window index. *)

type exec_ctx = Window.exec_ctx = {
  xc_window : Checkpoint.t -> (Pipeline.window_result, string) result;
  xc_deliver : int -> window_entry -> unit;
  xc_digest : string;
  xc_plan : Sampling_plan.t;
  xc_max_cycles : int;
  xc_telemetry : bool;
  xc_stopped : unit -> bool;
}

type runner = Window.runner = {
  r_dispatch : index:int -> boundary:int -> Checkpoint.t -> unit;
  r_drain : unit -> unit;
}

let seq_runner ctx =
  {
    r_dispatch =
      (fun ~index ~boundary:_ ck ->
        ctx.xc_deliver index { e_result = ctx.xc_window ck; e_tel = None });
    r_drain = (fun () -> ());
  }

(* [domains > 1] without an external runner: a private window queue,
   executed by up to [domains - 1] {!Pool} helpers plus the sweep
   thread, which help-executes whenever it reaches the in-flight cap
   and while draining. Closing cancels the helpers no worker has
   claimed and waits for the rest to leave the loop. Nothing is kept
   once delivered: a run's work units never repeat. Windows take
   exactly a served job's path, so results and telemetry match the
   inline runner's by construction. *)
let queue_runner ~domains ~config ctx =
  let mu = Mutex.create () and cond = Condition.create () in
  let wq =
    Wqueue.create ~monitor:(mu, cond) ~inflight_cap:(max 4 (2 * domains))
      ~finished_cap:0 ()
  in
  let closed = ref false in
  let rec work () =
    Mutex.lock mu;
    while not (!closed || Wqueue.pending_locked wq) do
      Condition.wait cond mu
    done;
    match Wqueue.steal_locked wq with
    | Some h ->
      Mutex.unlock mu;
      Wqueue.execute wq h;
      work ()
    | None -> Mutex.unlock mu
  in
  let helpers = Pool.help (domains - 1) work in
  let r = Wqueue.runner wq ~job:"sampled" ~config ctx in
  let close () =
    Mutex.lock mu;
    closed := true;
    Condition.broadcast cond;
    Mutex.unlock mu;
    Pool.join helpers
  in
  { r with r_drain = (fun () -> Fun.protect ~finally:close r.r_drain) }

let run_on ?(max_cycles = 2_000_000_000) ~plan ?(domains = 1) ?runner t =
  let { Sampling_plan.rank_bands; ci_target; period; _ } = plan in
  let oracle = Pipeline.oracle t in
  if
    Pipeline.cycle t <> 0
    || (Machine.stats oracle).Machine.instructions <> 0
  then Error "sampled runs require a freshly created pipeline"
  else begin
    let config = Pipeline.config t in
    let prog = Machine.program oracle in
    let digest = Checkpoint.program_digest prog in
    let domains = max 1 (min domains (Pool.max_workers + 1)) in
    let phase = Sampling_plan.phase_stream plan in
    let halted () = Machine.halted oracle in
    let results : (int, window_entry) Hashtbl.t = Hashtbl.create 64 in
    let njobs = ref 0 in
    let seed = Option.value ~default:0 plan.Sampling_plan.seed in
    (* One selector and one stopping rule, whatever the knobs: at
       [bands = 1] the selector passes every candidate through (plain
       fixed-period sampling), and at a target of 0 the rule never
       fires (the full window set). *)
    let selector = Rank.selector ~seed ~bands:rank_bands () in
    let stopper = Stopping.create ~target_pct:ci_target () in
    (* The sampling.* counters exist only in sampled runs, so a
       full-detail run's telemetry dump — part of the golden bench
       digests — is byte-identical with or without this code. They
       are published once, from the run's final counts; every value
       is a pure function of the sweep and the merged window prefix,
       never of worker-domain timing. The sampling.rank.* /
       sampling.stop.* families register only when their feature is
       on, so a plain fixed-period run's telemetry stays what it was
       before ranking and stopping existed. *)
    let milli x = int_of_float ((x *. 1000.) +. 0.5) in
    let family name on table =
      Telemetry.family (Telemetry.scope name) (if on then table else [||])
    in
    let tel =
      family "sampling" true
        [|
          ("windows", "events", "measured detailed windows",
           fun s -> s.sp_windows);
          ("warmed", "instructions",
           "instructions fast-forwarded under functional warming",
           fun s -> s.sp_warmed);
          ("detailed", "instructions",
           "instructions executed inside detailed windows",
           fun s -> s.sp_detailed);
          ("cpi_milli", "mCPI", "extrapolated CPI, in thousandths",
           fun s -> milli s.sp_cpi);
          ("ci95_milli", "mCPI",
           "95% confidence half-width of the CPI, in thousandths",
           fun s -> milli s.sp_cpi_ci95);
        |]
    in
    let rank_tel =
      family "sampling.rank" (rank_bands > 1)
        [|
          ("bands", "bands", "ranked-set size K (--rank-bands)",
           fun _ -> rank_bands);
          ("candidates", "events", "candidate window boundaries scored",
           Rank.candidates);
          ("sets", "events",
           "ranked sets drained (including a partial last set)",
           Rank.sets);
          (* Every selection drains exactly one set. *)
          ("selected", "events",
           "windows selected for detailed simulation", Rank.sets);
        |]
    in
    let stop_tel =
      family "sampling.stop" (ci_target > 0.)
        [|
          ("target_milli", "m%",
           "CI target, in thousandths of a percent of the mean \
            (--ci-target)",
           fun _ -> milli ci_target);
          ("observed", "events",
           "CPI samples folded into the stopping rule",
           fun s -> s.sp_windows);
          ("stopped", "events",
           "1 when the run stopped before the full window set",
           fun s -> Bool.to_int s.sp_stopped);
        |]
    in
    (* Early-stop machinery. [stop_flag] is advisory: it tells the
       sweep to stop capturing and dispatching further windows. It is
       raised by [advance_stopping], an in-order fold over the
       contiguous prefix of completed window results, so it fires
       exactly at the stop index, after folding that window, with
       [next_obs] one past it. Inline the fold runs after every
       window, so nothing is dispatched past the stop; off-thread it
       runs under the results mutex as windows land, so a few extra
       windows may get dispatched first (they are discarded at
       merge). Either way the sweep itself always warms to the end of
       the program: the savings are skipped windows, never skipped
       warming, and [sp_instructions]/[sp_warmed] stay identical at
       every domain count and stop target. *)
    let stop_flag = Atomic.make false in
    let next_obs = ref 0 in
    let advance_stopping () =
      let continue = ref true in
      while !continue && not (Atomic.get stop_flag) do
        match Hashtbl.find_opt results !next_obs with
        | Some { e_result = Ok w; _ } ->
          incr next_obs;
          (match w.Pipeline.w_sample with
          | Some (cycles, instrs) ->
            Stopping.observe stopper
              (float_of_int cycles /. float_of_int instrs);
            if Stopping.satisfied stopper then Atomic.set stop_flag true
          | None -> ())
        | Some { e_result = Error _; _ } | None -> continue := false
      done
    in
    (* Every delivery — inline or from the window queue — funnels
       through here: insert under the results mutex, then
       advance the advisory stopping fold. Sequentially the mutex is
       uncontended, so this is exactly the historical inline path. *)
    let rm = Mutex.create () in
    let deliver i entry =
      Mutex.lock rm;
      Hashtbl.replace results i entry;
      advance_stopping ();
      Mutex.unlock rm
    in
    let ctx =
      {
        xc_window = window_job ~config ~plan ~max_cycles ~digest prog;
        xc_deliver = deliver;
        xc_digest = digest;
        xc_plan = plan;
        xc_max_cycles = max_cycles;
        xc_telemetry = Telemetry.is_enabled ();
        xc_stopped = (fun () -> Atomic.get stop_flag);
      }
    in
    (* The warming signature of the stretch starting at a candidate
       boundary: deltas of the oracle's architectural counters, the
       warmed hierarchy's per-level miss counters and the warming
       branch model's mispredicts between this boundary and the next.
       All monotonic counters on the sweep pipeline, so a delta is two
       cheap reads — no extra simulation. *)
    let w = Pipeline.warm t in
    let snapshot () =
      let ms = Machine.stats oracle in
      let miss c = (Cache.stats (c w.hier)).Cache.misses in
      {
        Rank.instructions = ms.Machine.instructions;
        loads = ms.Machine.loads;
        stores = ms.Machine.stores;
        branches = ms.Machine.cond_branches + ms.Machine.brr_executed;
        l1i_misses = miss Hierarchy.l1i;
        l1d_misses = miss Hierarchy.l1d;
        l2_misses = miss Hierarchy.l2;
        mispredicts = w.mispredicts;
      }
    in
    (* The sweep warms the whole program on [t]; every window
       boundary is a candidate for the selector. A candidate is
       scored by the signature of its own stretch — the counter delta
       up to the NEXT boundary — so it sits pending until that
       snapshot exists, then enters the selector, which buffers at
       most one set (K checkpoints; at K = 1 it hands the candidate
       straight back, one period after its capture). Selections
       drain in set order, so selected windows are dispatched in
       schedule order. Once the stop flag is up, checkpoints stop
       being captured, but candidates keep flowing with [None]
       payloads: the rank counters stay a pure function of the sweep.
       Every period advances exactly [period] instructions, so
       candidate [i] starts at [i * period + offset_i] — the same
       schedule at any domain count.

       Dispatches carry two indices: [index] is the dense dispatch
       order (the merge key), [boundary] is the period index of the
       boundary the checkpoint was captured at — a pure function of
       the schedule that survives ranked selection's sparsification,
       so an external runner can content-address the work unit by
       (program, config, plan, boundary) alone. The boundary rides
       inside the selector's payload. *)
    let sweep dispatch =
      let select = function
        | Some (Some ck, boundary) when not (Atomic.get stop_flag) ->
          dispatch ~index:!njobs ~boundary ck;
          incr njobs
        | _ -> ()
      in
      let pending = ref None in
      let flush_pending now =
        Option.iter
          (fun (pay, s0) ->
            pending := None;
            select (Rank.push selector pay (Rank.sub now s0)))
          !pending
      in
      while not (halted ()) do
        let offset = phase () in
        ignore (Pipeline.run_warming ~max_steps:offset t);
        if not (halted ()) then begin
          let now = snapshot () in
          flush_pending now;
          (* Pushed candidates plus none pending: this boundary's
             period index. *)
          let boundary = Rank.candidates selector in
          let ck =
            if Atomic.get stop_flag then None
            else Some (Checkpoint.capture ~program_digest:digest t)
          in
          pending := Some ((ck, boundary), now);
          ignore (Pipeline.run_warming ~max_steps:(period - offset) t)
        end
      done;
      flush_pending (snapshot ());
      select (Rank.drain selector)
    in
    Pipeline.guard (fun () ->
      let r =
        match runner with
        | Some make -> make ctx
        | None when domains = 1 -> seq_runner ctx
        | None -> queue_runner ~domains ~config ctx
      in
      (* Plan, then execute: the sweep pushes work units through the
         runner; [r_drain] blocks until every dispatched window has
         been delivered — also on the error path, so no work unit
         (or pool helper) outlives the run. *)
      let sweep_err =
        try
          sweep r.r_dispatch;
          None
        with e -> Some e
      in
      r.r_drain ();
      (match sweep_err with Some e -> raise e | None -> ());
      let total = (Machine.stats oracle).Machine.instructions in
      let samples = ref [] in
      let windows = ref 0 in
      let detailed = ref 0 in
      let dcycles = ref 0 in
      let err = ref None in
      (* Merge strictly in window order: CPI samples join the
         estimate in schedule order, telemetry deltas absorb in the
         same order, and the first failing window (by index, not by
         completion time) decides the error — all independent of
         which domain ran what when. Every index has been delivered
         once [r_drain] returns, so the stopping fold has seen the
         whole in-order prefix: the merge stops where it stopped, and
         the merged prefix — hence every reported number and every
         absorbed delta — is a pure function of the schedule. Results
         past the stop index (off-thread dispatch overrun) are
         dropped wholesale, telemetry included. *)
      let stopped = Atomic.get stop_flag in
      let bound = if stopped then !next_obs else !njobs in
      let merged = ref 0 in
      while !err = None && !merged < bound do
        (match Hashtbl.find_opt results !merged with
        | None -> err := Some "internal error: window result missing"
        | Some { e_result = Error e; _ } -> err := Some e
        | Some { e_result = Ok w; e_tel } ->
          (match e_tel with Some e -> Telemetry.absorb e | None -> ());
          (match w.Pipeline.w_sample with
          | Some (cycles, instrs) ->
            let cpi = float_of_int cycles /. float_of_int instrs in
            samples := cpi :: !samples;
            incr windows
          | None -> ());
          detailed := !detailed + w.Pipeline.w_detailed;
          dcycles := !dcycles + w.Pipeline.w_cycles);
        incr merged
      done;
      match !err with
      | Some e -> Error e
      | None ->
        let est =
          Sampling_plan.estimate ~cpi_samples:(List.rev !samples)
            ~instructions:total
        in
        (* [run_on] only accepts a fresh pipeline, so the sweep warmed
           every instruction the oracle executed. *)
        let st =
          {
            sp_windows = !windows;
            sp_instructions = total;
            sp_warmed = total;
            sp_detailed = !detailed;
            sp_detailed_cycles = !dcycles;
            sp_cpi = est.Sampling_plan.cpi_mean;
            sp_cpi_ci95 = est.Sampling_plan.cpi_ci95;
            sp_cycles_estimate = est.Sampling_plan.cycles_estimate;
            sp_stopped = stopped;
          }
        in
        Telemetry.publish tel st;
        Telemetry.publish rank_tel selector;
        Telemetry.publish stop_tel st;
        Ok st)
  end
