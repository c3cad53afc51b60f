module Telemetry = Bor_telemetry.Telemetry
module Key = Bor_store.Key

(* A waiter is one job's claim on a work unit: deliver the unit's entry
   under the job's own dispatch index. Several jobs can wait on one
   unit — that is the whole point. *)
type waiter = {
  w_job : string;
  w_index : int;
  w_deliver : int -> Window.window_entry -> unit;
  w_stopped : unit -> bool;
}

type ustate =
  | Pending of (unit -> Window.window_entry)
  | Running
  | Finished of Window.window_entry

type wu = {
  wu_key : string;
  mutable wu_state : ustate;
  mutable wu_waiters : waiter list;  (* arrival order, reversed *)
}

type handle = wu * (unit -> Window.window_entry)

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  q : wu Queue.t;
  table : (string, wu) Hashtbl.t;
  (* completion order of successful units; bounds [table] so a
     long-lived server does not accumulate every checkpoint result it
     ever computed *)
  finished : string Queue.t;
  finished_cap : int;
  (* per-job undelivered work units: the dispatch backpressure bound
     and the drain condition *)
  inflight : (string, int) Hashtbl.t;
  inflight_cap : int;
  a_dispatched : int Atomic.t;
  a_executed : int Atomic.t;
  a_shared : int Atomic.t;
  a_failed : int Atomic.t;
}

let create ?monitor ?(inflight_cap = 8) ?(finished_cap = 512) () =
  if inflight_cap < 1 then invalid_arg "Wqueue.create: inflight_cap >= 1";
  if finished_cap < 0 then invalid_arg "Wqueue.create: finished_cap >= 0";
  let mu, cond =
    match monitor with
    | Some (m, c) -> (m, c)
    | None -> (Mutex.create (), Condition.create ())
  in
  {
    mu;
    cond;
    q = Queue.create ();
    table = Hashtbl.create 256;
    finished = Queue.create ();
    finished_cap;
    inflight = Hashtbl.create 16;
    inflight_cap;
    a_dispatched = Atomic.make 0;
    a_executed = Atomic.make 0;
    a_shared = Atomic.make 0;
    a_failed = Atomic.make 0;
  }

let inflight_of t job =
  match Hashtbl.find_opt t.inflight job with Some n -> n | None -> 0

let incr_inflight t job = Hashtbl.replace t.inflight job (inflight_of t job + 1)

let decr_inflight t job =
  match Hashtbl.find_opt t.inflight job with
  | Some n when n > 1 -> Hashtbl.replace t.inflight job (n - 1)
  | Some _ -> Hashtbl.remove t.inflight job
  | None -> ()

let pending_locked t = not (Queue.is_empty t.q)

(* Pop the next Pending unit, preferring one that a live (not
   advisory-stopped) job is waiting on: a stopped job's overrun windows
   are discarded at merge anyway, so they yield the pool to jobs whose
   windows still count. Stopped-only units are rotated to the back, not
   skipped — every dispatched unit still executes, which is what keeps
   [drain] and payload byte-identity independent of scheduling. *)
let steal_locked t =
  let live wu =
    match wu.wu_state with
    | Pending _ -> List.exists (fun w -> not (w.w_stopped ())) wu.wu_waiters
    | Running | Finished _ -> true
  in
  let n = Queue.length t.q in
  let rec pick i =
    if i >= n then None
    else
      let wu = Queue.pop t.q in
      if live wu then Some wu
      else begin
        Queue.push wu t.q;
        pick (i + 1)
      end
  in
  let chosen = match pick 0 with Some wu -> Some wu | None -> Queue.take_opt t.q in
  match chosen with
  | None -> None
  | Some wu -> (
      match wu.wu_state with
      | Pending exec ->
          wu.wu_state <- Running;
          Some ((wu, exec) : handle)
      | Running | Finished _ ->
          (* unreachable: units leave the queue exactly once *)
          None)

let complete t wu entry =
  Mutex.lock t.mu;
  wu.wu_state <- Finished entry;
  let waiters = List.rev wu.wu_waiters in
  wu.wu_waiters <- [];
  (match entry.Window.e_result with
  | Ok _ ->
      Queue.push wu.wu_key t.finished;
      while Queue.length t.finished > t.finished_cap do
        let old = Queue.pop t.finished in
        match Hashtbl.find_opt t.table old with
        | Some { wu_state = Finished _; _ } -> Hashtbl.remove t.table old
        | Some _ | None -> ()
      done
  | Error _ -> (
      (* A failed unit is never cached: drop it from the table so a
         later identical dispatch recomputes instead of inheriting the
         failure. Waiters already attached do observe the error — it is
         their window that failed. *)
      match Hashtbl.find_opt t.table wu.wu_key with
      | Some w when w == wu -> Hashtbl.remove t.table wu.wu_key
      | Some _ | None -> ()));
  Mutex.unlock t.mu;
  (* Deliver outside the lock (delivery runs the job's stopping fold),
     but decrement inflight only afterwards: [drain] returning must
     imply every one of the job's results has been inserted. *)
  List.iter (fun w -> w.w_deliver w.w_index entry) waiters;
  Mutex.lock t.mu;
  List.iter (fun w -> decr_inflight t w.w_job) waiters;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let execute t ((wu, exec) : handle) =
  let entry =
    try exec ()
    with e ->
      {
        Window.e_result =
          Error ("window execution failed: " ^ Printexc.to_string e);
        e_tel = None;
      }
  in
  (match entry.Window.e_result with
  | Error _ -> Atomic.incr t.a_failed
  | Ok _ -> ());
  Atomic.incr t.a_executed;
  complete t wu entry

(* Help-first: while blocked (on backpressure or drain), run queued
   units ourselves instead of waiting. Guarantees progress even with
   zero pool workers — a standalone Wqueue degenerates to inline
   execution — and makes deadlock structurally impossible: the only
   wait is for units Running on other threads, which never block. *)
let rec help_while t pred =
  if pred () then begin
    match steal_locked t with
    | Some h ->
        Mutex.unlock t.mu;
        execute t h;
        Mutex.lock t.mu;
        help_while t pred
    | None ->
        Condition.wait t.cond t.mu;
        help_while t pred
  end

let dispatch t ~job ~wu_key ~exec ~index ~deliver ~stopped =
  Atomic.incr t.a_dispatched;
  Mutex.lock t.mu;
  help_while t (fun () -> inflight_of t job >= t.inflight_cap);
  let waiter =
    { w_job = job; w_index = index; w_deliver = deliver; w_stopped = stopped }
  in
  match Hashtbl.find_opt t.table wu_key with
  | Some { wu_state = Finished entry; _ } ->
      Atomic.incr t.a_shared;
      Mutex.unlock t.mu;
      deliver index entry
  | Some wu ->
      Atomic.incr t.a_shared;
      wu.wu_waiters <- waiter :: wu.wu_waiters;
      incr_inflight t job;
      Mutex.unlock t.mu
  | None ->
      let wu = { wu_key; wu_state = Pending exec; wu_waiters = [ waiter ] } in
      Hashtbl.add t.table wu_key wu;
      Queue.push wu t.q;
      incr_inflight t job;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu

let drain t ~job =
  Mutex.lock t.mu;
  help_while t (fun () -> inflight_of t job > 0);
  Mutex.unlock t.mu

let runner t ~job ~config ctx =
  let tel = ctx.Window.xc_telemetry in
  let r_dispatch ~index ~boundary ck =
    let sk =
      Key.shard ~program_digest:ctx.Window.xc_digest ~config
        ~plan:ctx.Window.xc_plan ~boundary ()
    in
    let wu_key =
      Printf.sprintf "%s mc=%d tel=%b" (Key.hex sk) ctx.Window.xc_max_cycles
        tel
    in
    let exec () =
      (* Foreign-registry execution: whichever thread runs this unit
         swaps in a private registry, so a pool worker can execute job
         A's window while between jobs (or while running job B) without
         contaminating anyone's counters. The export travels with the
         entry and is absorbed at the owning job's in-order merge
         point — for every sharing job. *)
      let result, e = Telemetry.isolated ~enabled:tel (fun () -> ctx.Window.xc_window ck) in
      { Window.e_result = result; e_tel = Some e }
    in
    dispatch t ~job ~wu_key ~exec ~index ~deliver:ctx.Window.xc_deliver
      ~stopped:ctx.Window.xc_stopped
  in
  { Window.r_dispatch; r_drain = (fun () -> drain t ~job) }

(* Lock-free counter reads: safe from any thread, including under the
   shared monitor's lock (the serve scheduler publishes them as its
   serve.windows.* telemetry). *)
let dispatched t = Atomic.get t.a_dispatched
let executed t = Atomic.get t.a_executed
let shared_hits t = Atomic.get t.a_shared
let failed t = Atomic.get t.a_failed

let depth t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  Mutex.unlock t.mu;
  n

let inflight_total t =
  Mutex.lock t.mu;
  let n = Hashtbl.fold (fun _ n acc -> acc + n) t.inflight 0 in
  Mutex.unlock t.mu;
  n

let inflight_by_job t =
  Mutex.lock t.mu;
  let l = Hashtbl.fold (fun job n acc -> (job, n) :: acc) t.inflight [] in
  Mutex.unlock t.mu;
  List.sort compare l
