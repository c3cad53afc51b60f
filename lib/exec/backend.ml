module Machine = Bor_sim.Machine
module Pipeline = Bor_uarch.Pipeline

type report =
  | Functional of { instructions : int }
  | Detailed of Pipeline.stats
  | Warmed of { instructions : int }
  | Sampled of Sampled.stats

type t = {
  machine : unit -> Machine.t;
  pipeline : Pipeline.t option;
  run : unit -> (report, string) result;
}

let functional ?brr_mode ?max_steps prog =
  let m =
    match brr_mode with
    | Some b -> Machine.create ~brr_mode:b prog
    | None -> Machine.create prog
  in
  {
    machine = (fun () -> m);
    pipeline = None;
    run =
      (fun () ->
        Pipeline.guard (fun () ->
            Result.map
              (fun n -> Functional { instructions = n })
              (Machine.run ?max_steps m)));
  }

let pipeline_backed p run =
  { machine = (fun () -> Pipeline.oracle p); pipeline = Some p; run }

let detailed ?config ?reuse ?max_cycles prog =
  let p = Pipeline.create ?config ?reuse prog in
  pipeline_backed p (fun () ->
      Result.map (fun s -> Detailed s) (Pipeline.run ?max_cycles p))

let warming ?config ?reuse ?max_steps prog =
  let p = Pipeline.create ?config ?reuse prog in
  pipeline_backed p (fun () ->
      Pipeline.guard (fun () ->
          Ok (Warmed { instructions = Pipeline.run_warming ?max_steps p })))

let sampled ?config ?reuse ~plan ?domains ?runner ?max_cycles prog =
  let p = Pipeline.create ?config ?reuse prog in
  pipeline_backed p (fun () ->
      Result.map
        (fun s -> Sampled s)
        (Sampled.run_on ?max_cycles ~plan ?domains ?runner p))

let pooled make f =
  let b = make (Scratch.take ()) in
  Fun.protect
    ~finally:(fun () -> Option.iter Scratch.give b.pipeline)
    (fun () -> f b)

let resume ?config ?max_cycles ck prog =
  let p = Pipeline.create ?config prog in
  match Checkpoint.restore ck ~program_digest:(Checkpoint.program_digest prog) p with
  | Error e -> Error e
  | Ok () ->
    Ok
      (pipeline_backed p (fun () ->
           Result.map (fun s -> Detailed s) (Pipeline.run ?max_cycles p)))

let names = [ "functional"; "detailed"; "warming"; "sampled" ]

let of_name ?config ?plan ?runner name prog =
  let only_sampled arg =
    Error
      (Printf.sprintf "backend %S does not take ?%s (only \"sampled\" does)"
         name arg)
  in
  match (name, plan, runner) with
  | "sampled", Some plan, _ -> Ok (sampled ?config ~plan ?runner prog)
  | "sampled", None, _ -> Error "backend \"sampled\" needs a sampling ?plan"
  | _, _, Some _ -> only_sampled "runner"
  | _, Some _, _ -> only_sampled "plan"
  | "functional", _, _ -> Ok (functional prog)
  | "detailed", _, _ -> Ok (detailed ?config prog)
  | "warming", _, _ -> Ok (warming ?config prog)
  | _ ->
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
