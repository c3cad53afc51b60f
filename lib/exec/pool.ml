module Telemetry = Bor_telemetry.Telemetry

(* The process-wide worker set. Workers are spawned lazily, by the
   first call that offers helper copies, and grown only to the largest
   number of copies one call has offered (never past [max_workers]);
   they live until the process exits, parked on [work] while [queue]
   is empty. One mutex guards the queue, the worker count and every
   crew's [finished]/[failure]. *)

let max_workers = 63

type crew = {
  claims : bool Atomic.t array;  (* one per copy; set by whoever takes it *)
  mutable finished : int;  (* copies a worker claimed and has returned from *)
  mutable failure : exn option;  (* the first copy to raise *)
}

type copy = { claim : bool Atomic.t; crew : crew; body : unit -> unit }

let mu = Mutex.create ()
let work = Condition.create ()
let returned = Condition.create ()
let queue : copy Queue.t = Queue.create ()
let spawned = ref 0

(* A reused worker starts every copy as a freshly spawned domain would:
   telemetry off and an empty registry, whatever an earlier copy
   registered or enabled there. *)
let run_copy c =
  Telemetry.set_enabled false;
  Telemetry.clear ();
  let failure = match c.body () with () -> None | exception e -> Some e in
  Mutex.lock mu;
  if Option.is_none c.crew.failure then c.crew.failure <- failure;
  c.crew.finished <- c.crew.finished + 1;
  Condition.broadcast returned;
  Mutex.unlock mu

(* A copy's claim flag decides between a worker and its joining caller:
   whoever sets it first owns the copy, to run or to cancel. *)
let rec worker () =
  Mutex.lock mu;
  while Queue.is_empty queue do
    Condition.wait work mu
  done;
  let c = Queue.pop queue in
  Mutex.unlock mu;
  if Atomic.compare_and_set c.claim false true then run_copy c;
  worker ()

let help copies body =
  let copies = max 0 (min copies max_workers) in
  let crew =
    { claims = Array.init copies (fun _ -> Atomic.make false); finished = 0;
      failure = None }
  in
  Mutex.lock mu;
  Array.iter
    (fun claim ->
      Queue.push { claim; crew; body } queue;
      Condition.signal work)
    crew.claims;
  let grow = copies - !spawned in
  spawned := max !spawned copies;
  Mutex.unlock mu;
  (* Spawned outside the lock. A spawn the runtime refuses (its own
     domain limit, reached with domains this pool does not own) only
     leaves fewer workers: the caller's own share of the work never
     depends on one. *)
  for _ = 1 to grow do
    match Domain.spawn worker with
    | _ -> ()
    | exception _ -> Mutex.protect mu (fun () -> decr spawned)
  done;
  crew

let join crew =
  (* A claim the caller wins cancels that copy; each one it loses is a
     copy a worker has started, and only those are waited for. *)
  let cancelled =
    Array.fold_left
      (fun n claim -> if Atomic.compare_and_set claim false true then n + 1 else n)
      0 crew.claims
  in
  let started = Array.length crew.claims - cancelled in
  Mutex.lock mu;
  (* Cancelled copies leave the queue now rather than whenever a worker
     gets to them, so busy workers never let dead closures pile up. *)
  if cancelled > 0 then begin
    let live = Queue.create () in
    Queue.iter (fun c -> if not (Atomic.get c.claim) then Queue.push c live) queue;
    Queue.clear queue;
    Queue.transfer live queue
  end;
  while crew.finished < started do
    Condition.wait returned mu
  done;
  let failure = crew.failure in
  Mutex.unlock mu;
  Option.iter raise failure

let map ?(domains = 1) ?(init = fun () -> ()) f items =
  let n = Array.length items in
  let participants = min domains n in
  if participants <= 1 then begin
    init ();
    Array.map f items
  end
  else begin
    let next = Atomic.make 0 in
    let out = Array.make n None in
    let body () =
      init ();
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (out.(i) <- Some (try Ok (f items.(i)) with e -> Error e));
          loop ()
        end
      in
      loop ()
    in
    let crew = help (participants - 1) body in
    (match body () with
    | () -> join crew
    | exception e ->
      (try join crew with _ -> ());
      raise e);
    (* Slots are disjoint per item, and [join] orders every helper's
       writes before these reads. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      out
  end
