(* The three simulation workloads over the kernel set:

   - detailed: [Backend.detailed] + [run], one thread — full-detail
     [bor time], all pipeline core;
   - sampled: [Backend.sampled], plan 2000:1000:200000:<seed>, one
     domain — default [bor time --sample], dominated by the warming
     sweep and per-window create/capture;
   - windows: [Sampled.run_on], plan 2000:50000:60000:<seed>, two
     domains — detail-heavy sampling, dominated by window execution.

   Throughput is simulated program instructions (whole run, oracle
   count) per host second over one pass of the kernel set, each kernel
   at its best time in the run; latency is the mean over kernels of
   that best time. Best-of, because the noise on a shared host comes in
   bursts that only ever slow a run down (README.md). *)

module Pipeline = Bor_uarch.Pipeline
module Sampled = Bor_exec.Sampled
module Checkpoint = Bor_exec.Checkpoint
module Machine = Bor_sim.Machine

type mode = Detailed | Sampled_default | Windows

let mode_name = function
  | Detailed -> "detailed"
  | Sampled_default -> "sampled"
  | Windows -> "windows"

let plan_of mode seed =
  let spec =
    match mode with
    | Windows -> Printf.sprintf "2000:50000:60000:%d" seed
    | Detailed | Sampled_default -> Printf.sprintf "2000:1000:200000:%d" seed
  in
  match Bor_uarch.Sampling_plan.of_string spec with
  | Ok p -> p
  | Error e -> failwith (spec ^ ": " ^ e)

let domains_of = function Windows -> 2 | Detailed | Sampled_default -> 1

(* A sampled estimate must land within 5% of the full-detail cycles or
   within twice its own 95% confidence half-width, whichever is wider
   (short kernels get few windows and a wide interval). *)
let max_err_pct (s : Sampled.stats) =
  Float.max 5. (200. *. s.sp_cpi_ci95 /. s.sp_cpi)

let instructions m = (Machine.stats m).Machine.instructions

(* Full-detail whole-run cycles per kernel: the reference row when the
   seed has one, else one detailed run made before timing starts. *)
let full_cycles c k =
  match Reference.find c.Ctx.refs ~kind:"kernel" ~name:k.Kernels.name ~seed:c.Ctx.o.seed with
  | Some row when List.mem_assoc "cycles" row ->
    float_of_string (List.assoc "cycles" row)
  | _ -> (
    let b = Bor_exec.Backend.detailed k.Kernels.prog in
    match b.run () with
    | Ok _ -> float_of_int (Pipeline.cycle (Option.get b.pipeline))
    | Error e -> failwith (k.name ^ ": " ^ e))

type outcome = {
  time : float;
  instr : int;
  stats : Sampled.stats option;
  errors : string list;
}

let detailed_op c k =
  let tr = c.Ctx.tr and req = k.Kernels.name in
  let t0 = Trace.now () in
  let b, r =
    Trace.span tr ~req "detailed.op" (fun root ->
        let b =
          Trace.span tr ~parent:root ~req "pipeline.create" (fun _ ->
              Bor_exec.Backend.detailed k.prog)
        in
        (b, Trace.span tr ~parent:root ~req "pipeline.run" (fun _ -> b.run ())))
  in
  let time = Trace.now () -. t0 in
  let m = b.machine () in
  let errors =
    match r with
    | Error e -> [ e ]
    | Ok _ ->
      Kernels.check_final c ~kind:"kernel" k m
        [
          ("cycles", string_of_int (Pipeline.cycle (Option.get b.pipeline)));
          ("instructions", string_of_int (instructions m));
        ]
  in
  { time; instr = instructions m; stats = None; errors }

(* The traced window executor: what [Sampled]'s inline runner does,
   with a span around each call into a layer. The sweep is the parent
   of every window span; [drained] marks where the in-order merge
   starts. *)
let inline_runner tr ~req ~prog ~sweep ~drained (ctx : Sampled.exec_ctx) =
  let plan = ctx.xc_plan in
  {
    Sampled.r_dispatch =
      (fun ~index ~boundary:_ ck ->
        let parent = !sweep in
        let clone =
          Trace.span tr ~parent ~req "pipeline.create" (fun _ ->
              Pipeline.create prog)
        in
        let r =
          match
            Trace.span tr ~parent ~req "checkpoint.restore" (fun _ ->
                Checkpoint.restore ck ~program_digest:ctx.xc_digest clone)
          with
          | Error e -> Error e
          | Ok () ->
            Trace.span tr ~parent ~req "pipeline.window" (fun _ ->
                Pipeline.run_window ~max_cycles:ctx.xc_max_cycles
                  ~warmup:plan.Bor_uarch.Sampling_plan.warmup
                  ~window:plan.Bor_uarch.Sampling_plan.window clone)
        in
        ctx.xc_deliver index { Sampled.e_result = r; e_tel = None });
    r_drain = (fun () -> drained := Trace.now ());
  }

let sampled_checks c mode k m (s : Sampled.stats) full =
  let err = 100. *. Float.abs (s.sp_cycles_estimate -. full) /. full in
  let accuracy =
    if err <= max_err_pct s then []
    else
      [
        Printf.sprintf "%s: estimate %.0f is %.2f%% off full-detail %.0f (CPI %.4f +- %.4f)"
          k.Kernels.name s.sp_cycles_estimate err full s.sp_cpi s.sp_cpi_ci95;
      ]
  in
  accuracy
  @ Kernels.check_final c ~kind:(mode_name mode) k m
      [
        ("estimate", Printf.sprintf "%.0f" s.sp_cycles_estimate);
        ("windows", string_of_int s.sp_windows);
        ("instructions", string_of_int s.sp_instructions);
      ]

(* One sampled run. Untraced, it is exactly the workload's call
   ([Backend.sampled] at one domain, [Sampled.run_on] at two); traced,
   the windows go through [inline_runner] on this thread instead. *)
let sampled_op c mode ~full ~traced k =
  let tr = if traced then c.Ctx.tr else Trace.create ~enabled:false in
  let req = k.Kernels.name in
  let plan = plan_of mode c.Ctx.o.seed in
  let sweep = ref (-1) and drained = ref 0. in
  let runner =
    if traced then Some (inline_runner tr ~req ~prog:k.prog ~sweep ~drained)
    else None
  in
  let domains = domains_of mode in
  let t0 = Trace.now () in
  let p, r =
    Trace.span tr ~req "sampled.op" (fun root ->
        match (mode, runner) with
        | Windows, None ->
          let p =
            Trace.span tr ~parent:root ~req "pipeline.create" (fun _ ->
                Pipeline.create k.prog)
          in
          (p, Sampled.run_on ~plan ~domains p)
        | _ ->
          let b =
            Trace.span tr ~parent:root ~req "pipeline.create" (fun _ ->
                Bor_exec.Backend.sampled ~plan ~domains ?runner k.prog)
          in
          let r =
            Trace.span tr ~parent:root ~req "sampled.sweep" (fun id ->
                sweep := id;
                let r = b.run () in
                if traced then
                  ignore
                    (Trace.add tr ~parent:id ~req "sampled.merge" ~start:!drained
                       ~stop:(Trace.now ()));
                r)
          in
          ( Option.get b.pipeline,
            Result.map
              (function
                | Bor_exec.Backend.Sampled s -> s
                | _ -> failwith "sampled backend returned another report")
              r ))
  in
  let time = Trace.now () -. t0 in
  let m = Pipeline.oracle p in
  match r with
  | Error e -> { time; instr = instructions m; stats = None; errors = [ e ] }
  | Ok s ->
    {
      time;
      instr = instructions m;
      stats = Some s;
      errors = sampled_checks c mode k m s full;
    }

(* The warming sweep of a fixed-period plan on [p], boundary by
   boundary as [Sampled] runs it: [warm n] advances n instructions and
   [at_boundary i] runs at the i-th window boundary. *)
let sweep plan p ~warm ~at_boundary =
  let oracle = Pipeline.oracle p in
  let phase = Bor_uarch.Sampling_plan.phase_stream plan in
  let period = plan.Bor_uarch.Sampling_plan.period in
  let rec go i =
    if not (Machine.halted oracle) then begin
      let offset = phase () in
      warm offset;
      if Machine.halted oracle then ()
      else begin
        at_boundary i;
        warm (period - offset);
        go (i + 1)
      end
    end
  in
  go 0

(* The sweep replayed with [run_warming] and [capture] timed separately
   at every boundary, and [to_string] at the first [serialized] (a 2 MB
   serialization per boundary would make the detail-heavy plan's replay
   take longer than its run). *)
let serialized = 8

let replay c mode k =
  let tr = c.Ctx.tr and req = k.Kernels.name in
  Trace.span tr ~req "sampled.replay" (fun root ->
      let p =
        Trace.span tr ~parent:root ~req "pipeline.create" (fun _ ->
            Pipeline.create k.prog)
      in
      let digest = Checkpoint.program_digest k.prog in
      let warmed = ref 0 and bytes = ref [] in
      sweep (plan_of mode c.Ctx.o.seed) p
        ~warm:(fun n ->
          warmed :=
            !warmed
            + Trace.span tr ~parent:root ~req "warming.run" (fun _ ->
                  Pipeline.run_warming ~max_steps:n p))
        ~at_boundary:(fun i ->
          let ck =
            Trace.span tr ~parent:root ~req "checkpoint.capture" (fun _ ->
                Checkpoint.capture ~program_digest:digest p)
          in
          if i < serialized then
            let s =
              Trace.span tr ~parent:root ~req "checkpoint.serialize" (fun _ ->
                  Checkpoint.to_string ck)
            in
            bytes := String.length s :: !bytes);
      let hits, fallback =
        match Pipeline.block_cache p with
        | Some bc ->
          let s = Bor_uarch.Block.stats bc in
          (s.Bor_uarch.Block.hits, s.Bor_uarch.Block.fallback_steps)
        | None -> (0, 0)
      in
      (!warmed, !bytes, hits, fallback))

type result = {
  e2e : (string * float * float list) list;
  layers : (string * float * float list) list;
}

let run c mode kernels ~deadline_after =
  let full =
    if mode = Detailed then []
    else List.map (fun k -> (k.Kernels.name, full_cycles c k)) kernels
  in
  let times = Ctx.Samples.create () and rss = Ctx.Samples.create () in
  let instr = Hashtbl.create 16 in
  let untraced_stats = Hashtbl.create 16 in
  let replays = Ctx.Samples.create () in
  let traced_cpi_err = Ctx.Samples.create () in
  let untraced_time = ref 0. in
  let loop_start = Trace.now () in
  let deadline = loop_start +. deadline_after in
  let op k =
    let name = k.Kernels.name in
    Ctx.gc c;
    let o, peak =
      Ctx.with_peak_rss (fun () ->
          match mode with
          | Detailed -> detailed_op c k
          | Sampled_default | Windows ->
            sampled_op c mode ~full:(List.assoc name full) ~traced:false k)
    in
    Ctx.record c ~op:name o.errors;
    Ctx.Samples.add times name o.time;
    Ctx.Samples.add rss name peak;
    Hashtbl.replace instr name o.instr;
    Option.iter (Hashtbl.replace untraced_stats name) o.stats;
    if Trace.enabled c.tr && mode <> Detailed then begin
      (* The traced pass: same run through the inline runner, whose
         stats must equal the untraced run's, then the sweep replay. *)
      untraced_time := !untraced_time +. o.time;
      Ctx.gc c;
      let t = sampled_op c mode ~full:(List.assoc name full) ~traced:true k in
      let same =
        match (t.stats, o.stats) with
        | Some a, Some b when a = b -> []
        | _ -> [ name ^ ": traced sampled stats differ from the untraced run" ]
      in
      Ctx.record c ~op:(name ^ " (traced)") (t.errors @ same);
      (match t.stats with
      | Some s ->
        let f = List.assoc name full in
        Ctx.Samples.add traced_cpi_err name
          (100. *. Float.abs (s.sp_cycles_estimate -. f) /. f)
      | None -> ());
      Ctx.gc c;
      let warmed, bytes, hits, fallback = replay c mode k in
      let faithful =
        match o.stats with
        | Some s when s.sp_warmed = warmed -> []
        | _ -> [ name ^ ": sweep replay warmed a different instruction count" ]
      in
      Ctx.record c ~op:(name ^ " (replay)") faithful;
      Ctx.Samples.add replays name (warmed, bytes, hits, fallback)
    end
  in
  Ctx.cycle c ~deadline kernels op;
  let loop_wall = Trace.now () -. loop_start in
  let names = Ctx.Samples.keys times in
  let best name = Ctx.Samples.best times name in
  let total_instr = List.fold_left (fun a n -> a + Hashtbl.find instr n) 0 names in
  let pass_time = List.fold_left (fun a n -> a +. best n) 0. names in
  let throughput = float_of_int total_instr /. pass_time /. 1e6 in
  let per_op_mips =
    List.concat_map
      (fun n ->
        List.map
          (fun t -> float_of_int (Hashtbl.find instr n) /. t /. 1e6)
          (Ctx.Samples.get times n))
      names
  in
  let latency = pass_time /. float_of_int (List.length names) *. 1000. in
  let e2e =
    [
      ("throughput", throughput, per_op_mips);
      ( "latency_ms",
        latency,
        List.map (fun t -> t *. 1000.) (Ctx.Samples.all times) );
      ("peak_rss_mb", Ctx.Samples.max_median rss, Ctx.Samples.all rss);
    ]
  in
  let layers =
    if not (Trace.enabled c.tr) then []
    else begin
      let since = loop_start in
      let root = if mode = Detailed then "detailed.op" else "sampled.op" in
      let l = Ctx.Layers.of_trace ~since ~root c.tr in
      let rl = Ctx.Layers.of_trace ~since ~root:"sampled.replay" c.tr in
      let window_s = Ctx.Layers.per_pass l "pipeline.window" in
      let run_s = Ctx.Layers.per_pass l "pipeline.run" in
      let sweep_s = Ctx.Layers.per_pass l "sampled.sweep" in
      let stats = List.filter_map (Hashtbl.find_opt untraced_stats) names in
      let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
      let detailed_instr = sum (fun s -> s.Sampled.sp_detailed) in
      let reps = List.map (fun n -> (n, Ctx.Samples.get replays n)) names in
      let rep_sum f =
        List.fold_left
          (fun a (_, rs) ->
            match rs with
            | [] -> a
            | _ ->
              a
              +. (List.fold_left (fun a r -> a +. f r) 0. rs
                 /. float_of_int (List.length rs)))
          0. reps
      in
      let warm_s = Ctx.Layers.per_pass rl "warming.run" in
      let warmed = rep_sum (fun (w, _, _, _) -> float_of_int w) in
      let hits = rep_sum (fun (_, _, h, _) -> float_of_int h) in
      let fallback = rep_sum (fun (_, _, _, f) -> float_of_int f) in
      let all_bytes =
        List.concat_map (fun (_, rs) -> List.concat_map (fun (_, b, _, _) -> b) rs) reps
      in
      let ratio a b = if b = 0. then 0. else a /. b in
      let layer_s = run_s +. window_s in
      let covered = Ctx.Layers.covered l in
      let traced_wall =
        loop_wall -. !untraced_time -. Ctx.Layers.duration l Ctx.Layers.is_bench
      in
      let cpi_errs =
        List.filter_map
          (fun n ->
            match Ctx.Samples.get traced_cpi_err n with
            | [] -> None
            | e :: _ -> Some e)
          names
      in
      [
        ("pipeline.run_s", run_s, []);
        ("pipeline.window_s", window_s, []);
        ("pipeline.create_us", Ctx.Layers.mean l "pipeline.create" *. 1e6, []);
        ( "pipeline.mips",
          ratio
            (float_of_int (if mode = Detailed then total_instr else detailed_instr))
            layer_s
          /. 1e6,
          [] );
        ("warming.run_s", warm_s, []);
        ("warming.mips", ratio warmed warm_s /. 1e6, []);
        ("block.hit_ratio", ratio hits (hits +. fallback), []);
        ("checkpoint.capture_us", Ctx.Layers.mean rl "checkpoint.capture" *. 1e6, []);
        ("checkpoint.restore_us", Ctx.Layers.mean l "checkpoint.restore" *. 1e6, []);
        ( "checkpoint.serialize_ms",
          Ctx.Layers.mean rl "checkpoint.serialize" *. 1e3,
          [] );
        ( "checkpoint.bytes",
          (match all_bytes with
          | [] -> 0.
          | b -> Stats.mean (List.map float_of_int b)),
          [] );
        ("sampled.sweep_s", sweep_s, []);
        ("sampled.merge_s", Ctx.Layers.per_pass l "sampled.merge", []);
        ("sampled.windows", float_of_int (sum (fun s -> s.Sampled.sp_windows)), []);
        ( "sampled.overlap",
          (if mode = Detailed then 0. else ratio (sweep_s +. window_s) pass_time),
          [] );
        ( "sampled.cpi_err_pct",
          (match cpi_errs with [] -> 0. | e -> Stats.mean e),
          cpi_errs );
        ("trace.coverage_pct", 100. *. ratio covered traced_wall, []);
      ]
    end
  in
  { e2e; layers }
