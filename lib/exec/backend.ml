module Machine = Bor_sim.Machine
module Pipeline = Bor_uarch.Pipeline
module Check = Bor_check.Check

type report =
  | Functional of { instructions : int }
  | Detailed of Pipeline.stats
  | Warmed of { instructions : int }
  | Sampled of Sampled.stats

type t = {
  name : string;
  machine : unit -> Machine.t;
  pipeline : Pipeline.t option;
  step : unit -> unit;
  halted : unit -> bool;
  run : unit -> (report, string) result;
  state_digests : unit -> (string * string) list;
}

(* The [run] closures never raise: substrate-specific exceptions
   (sanitizer violations, oracle faults) unify into the same [Error]
   strings across backends, which is what lets the differential runner
   compare legs without per-substrate handlers. *)
let guard f =
  try f () with
  | Check.Violation v -> Error (Check.to_string v)
  | Machine.Fault { pc; message } ->
    Error (Printf.sprintf "oracle fault at 0x%x: %s" pc message)
  | Bor_sim.Memory.Fault m -> Error m

let uarch_digests p () =
  Bor_uarch.Hierarchy.state_digests (Pipeline.hierarchy p)
  @ [
      ("predictor", Bor_uarch.Predictor.state_digest (Pipeline.predictor p));
      ("btb", Bor_uarch.Btb.state_digest (Pipeline.btb p));
      ("ras", Bor_uarch.Ras.state_digest (Pipeline.ras p));
      ( "lfsr",
        string_of_int (Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr (Pipeline.engine p)))
      );
    ]

let functional ?brr_mode ?max_steps prog =
  let m =
    match brr_mode with
    | Some b -> Machine.create ~brr_mode:b prog
    | None -> Machine.create prog
  in
  {
    name = "functional";
    machine = (fun () -> m);
    pipeline = None;
    step = (fun () -> Machine.step m);
    halted = (fun () -> Machine.halted m);
    run =
      (fun () ->
        guard (fun () ->
            match Machine.run ?max_steps m with
            | Ok n -> Ok (Functional { instructions = n })
            | Error e -> Error e));
    state_digests = (fun () -> []);
  }

let pipeline_backed ~name p run =
  {
    name;
    machine = (fun () -> Pipeline.oracle p);
    pipeline = Some p;
    step = (fun () -> Pipeline.step_cycle p);
    halted = (fun () -> Pipeline.halted p);
    run;
    state_digests = uarch_digests p;
  }

let detailed ?config ?reuse ?max_cycles prog =
  let p = Pipeline.create ?config ?reuse prog in
  pipeline_backed ~name:"detailed" p (fun () ->
      guard (fun () ->
          match Pipeline.run ?max_cycles p with
          | Ok s -> Ok (Detailed s)
          | Error e -> Error e))

let warming ?config ?max_steps prog =
  let p = Pipeline.create ?config prog in
  let b =
    pipeline_backed ~name:"warming" p (fun () ->
        guard (fun () ->
            Ok (Warmed { instructions = Pipeline.run_warming ?max_steps p })))
  in
  {
    b with
    step = (fun () -> Pipeline.warm_step p);
    halted = (fun () -> Machine.halted (Pipeline.oracle p));
  }

let sampled ?config ~plan ?domains ?rank_bands ?ci_target ?runner ?max_cycles
    prog =
  let p = Pipeline.create ?config prog in
  let b =
    pipeline_backed ~name:"sampled" p (fun () ->
        match
          Sampled.run_on ?max_cycles ~plan ?domains ?rank_bands ?ci_target
            ?runner p
        with
        | Ok s -> Ok (Sampled s)
        | Error e -> Error e)
  in
  {
    b with
    step = (fun () -> Pipeline.warm_step p);
    halted = (fun () -> Machine.halted (Pipeline.oracle p));
  }

let resume ?config ?max_cycles ck prog =
  let p = Pipeline.create ?config prog in
  match Checkpoint.restore ck ~program_digest:(Checkpoint.program_digest prog) p with
  | Error e -> Error e
  | Ok () ->
    Ok
      (pipeline_backed ~name:"resume" p (fun () ->
           guard (fun () ->
               match Pipeline.run ?max_cycles p with
               | Ok s -> Ok (Detailed s)
               | Error e -> Error e)))

let names = [ "functional"; "detailed"; "warming"; "sampled" ]

let of_name ?config ?plan ?rank_bands ?ci_target ?runner name prog =
  let sampled_only =
    [
      ("runner", Option.is_some runner);
      ("plan", Option.is_some plan);
      ("rank_bands", Option.is_some rank_bands);
      ("ci_target", Option.is_some ci_target);
    ]
  in
  match (name, List.find_opt snd sampled_only) with
  | "sampled", _ -> (
    match plan with
    | Some plan ->
      Ok (sampled ?config ~plan ?rank_bands ?ci_target ?runner prog)
    | None -> Error "backend \"sampled\" needs a sampling ?plan")
  | _, Some (arg, _) ->
    Error
      (Printf.sprintf "backend %S does not take ?%s (only \"sampled\" does)"
         name arg)
  | "functional", None -> Ok (functional prog)
  | "detailed", None -> Ok (detailed ?config prog)
  | "warming", None -> Ok (warming ?config prog)
  | _, None ->
    Error
      (Printf.sprintf "unknown backend %S (expected %s)" name
         (String.concat "|" names))

let run_cached ?store ~key ~render create =
  let compute () =
    match create () with
    | Error e -> Error e
    | Ok b -> (
      match b.run () with Error e -> Error e | Ok report -> Ok (render report))
  in
  match store with
  | None -> Result.map (fun payload -> (payload, `Cold)) (compute ())
  | Some st -> (
    match Bor_store.Store.find st key with
    | Some payload -> Ok (payload, `Cached)
    | None -> (
      match compute () with
      | Error e -> Error e
      | Ok payload ->
        (* Best-effort publish: a full disk must not turn a good run
           into a failure. *)
        (match Bor_store.Store.put st key payload with
        | Ok () | Error _ -> ());
        Ok (payload, `Cold)))
