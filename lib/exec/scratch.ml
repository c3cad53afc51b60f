module Pipeline = Bor_uarch.Pipeline
module Telemetry = Bor_telemetry.Telemetry

(* Callers run on pool domains, window-queue workers and systhreads
   alike, and each needs a pipeline of its own for the length of one
   run, hence a locked free list rather than a per-domain slot. *)
let lock = Mutex.create ()
let free : Pipeline.t list ref = ref []

let take () =
  Mutex.protect lock (fun () ->
      match !free with
      | p :: rest ->
        free := rest;
        Some p
      | [] -> None)

let give p = Mutex.protect lock (fun () -> free := p :: !free)

let with_memory prog f =
  let p =
    match take () with
    | Some p -> p
    | None ->
      (* Only a buffer donor, so its instruments go to a throwaway
         registry rather than the caller's. *)
      fst (Telemetry.isolated ~enabled:false (fun () -> Pipeline.create prog))
  in
  Fun.protect
    ~finally:(fun () -> give p)
    (fun () -> f (Bor_sim.Machine.memory (Pipeline.oracle p)))
