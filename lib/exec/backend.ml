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

let functional ?mem ?brr_mode ?max_steps prog =
  let m = Machine.create ?mem ?brr_mode prog in
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

let detailed_on ?max_cycles p =
  pipeline_backed p (fun () ->
      Result.map (fun s -> Detailed s) (Pipeline.run ?max_cycles p))

let detailed ?config ?reuse ?max_cycles prog =
  detailed_on ?max_cycles (Pipeline.create ?config ?reuse prog)

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
  Checkpoint.restore ck ~program_digest:(Checkpoint.program_digest prog) p
  |> Result.map (fun () -> detailed_on ?max_cycles p)

module Kind = struct
  type t =
    | Functional | Detailed | Warming | Sampled of Bor_uarch.Sampling_plan.t

  let name = function
    | Functional -> "functional"
    | Detailed -> "detailed"
    | Warming -> "warming"
    | Sampled _ -> "sampled"

  let of_name name plan =
    match (name, plan) with
    | "functional", None -> Ok Functional
    | "detailed", None -> Ok Detailed
    | "warming", None -> Ok Warming
    | "sampled", Some p -> Ok (Sampled p)
    | "sampled", None -> Error "backend \"sampled\" needs a sampling plan"
    | ("functional" | "detailed" | "warming"), Some _ ->
      Error (Printf.sprintf "backend %S takes no sampling plan" name)
    | _ ->
      Error
        (Printf.sprintf
           "unknown backend %S (expected functional|detailed|warming|sampled)"
           name)
end

let create ?config ?runner kind prog =
  match kind with
  | Kind.Functional -> functional prog
  | Kind.Detailed -> detailed ?config prog
  | Kind.Warming -> warming ?config prog
  | Kind.Sampled plan -> sampled ?config ~plan ?runner prog

let run_cached ?store ~key ~render create =
  let compute () =
    Pipeline.guard (fun () ->
        match create () with
        | Error e -> Error e
        | Ok b -> (
          match b.run () with
          | Error e -> Error e
          | Ok report -> Ok (render report)))
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
