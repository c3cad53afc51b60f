module Telemetry = Bor_telemetry.Telemetry

type disposition = [ `Queued | `Joined | `Hit ]
type outcome = (string * [ `Cold | `Cached ], string) result
type state = Queued | Running | Done of outcome

type entry = { e_spec : Job.spec; mutable e_state : state }

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  jobs : (string, entry) Hashtbl.t;
  queue : string Queue.t;
  wq : Wqueue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t option array;
  s_store : Bor_store.Store.t option;
  s_domains : int;
  (* submit-side counts (owner domain, under [mu]) *)
  mutable n_submitted : int;
  mutable n_joins : int;
  mutable n_mem_hits : int;
  (* worker-side counts *)
  a_completed : int Atomic.t;
  a_failed : int Atomic.t;
  a_cold : int Atomic.t;
  a_cached : int Atomic.t;
  a_busy : int Atomic.t;
  (* serve.* telemetry: the counters are published from the counts
     above (see [serve_counters]); they and the histograms belong to
     the domain that created the scheduler and are only touched there
     (submit/stats run on that domain), never by workers — instruments
     must not cross domains. *)
  tel : t Telemetry.family;
  h_queue_depth : Telemetry.histogram;
  h_busy : Telemetry.histogram;
}

(* Memory hits and store hits both count as serve.cache.hits; only cold
   runs are misses. *)
let serve_counters =
  [|
    ("jobs.submitted", "jobs", "submissions accepted (all dispositions)",
     fun t -> t.n_submitted);
    ("jobs.completed", "jobs", "worker runs that returned Ok",
     fun t -> Atomic.get t.a_completed);
    ("jobs.failed", "jobs", "worker runs that returned an error",
     fun t -> Atomic.get t.a_failed);
    ("cache.hits", "jobs",
     "submissions answered without a fresh run (memory or store)",
     fun t -> t.n_mem_hits + Atomic.get t.a_cached);
    ("cache.misses", "jobs", "jobs computed cold",
     fun t -> Atomic.get t.a_cold);
    ("dedup.joins", "jobs", "submissions that joined an in-flight job",
     fun t -> t.n_joins);
    ("windows.dispatched", "windows",
     "window work units dispatched into the global queue",
     fun t -> Wqueue.dispatched t.wq);
    ("windows.executed", "windows",
     "window work units executed (once each, however many jobs share them)",
     fun t -> Wqueue.executed t.wq);
    ("windows.shared_shard_hits", "windows",
     "dispatches answered by an existing work unit (cross-job shard \
      sharing)",
     fun t -> Wqueue.shared_hits t.wq);
    ("windows.failed", "windows",
     "window executions that failed (fails the owning jobs only, never \
      cached)",
     fun t -> Wqueue.failed t.wq);
  |]

let rec worker_loop t =
  Mutex.lock t.mu;
  while
    Queue.is_empty t.queue
    && (not (Wqueue.pending_locked t.wq))
    && not t.stopping
  do
    Condition.wait t.cond t.mu
  done;
  (* Window units take priority over queued jobs: finishing the jobs
     already in flight beats widening the working set, and a unit's
     waiters may include a client already blocked on [result wait]. *)
  match Wqueue.steal_locked t.wq with
  | Some h ->
      Mutex.unlock t.mu;
      Wqueue.execute t.wq h;
      worker_loop t
  | None ->
      if Queue.is_empty t.queue then (* stopping, both queues drained *)
        Mutex.unlock t.mu
      else begin
        let key = Queue.pop t.queue in
        let entry = Hashtbl.find t.jobs key in
        entry.e_state <- Running;
        Atomic.incr t.a_busy;
        Mutex.unlock t.mu;
        (* A sampled job's windows go through the global queue instead
           of its own domain fan-out; every other backend ignores the
           runner. [key] doubles as the queue's job id, so per-job
           in-flight gauges and stop flags are addressable by the same
           hex the client polls. *)
        let spec = entry.e_spec in
        let runner = Wqueue.runner t.wq ~job:key ~config:spec.Job.sp_config in
        (* No exception may end the worker: the job fails instead, and
           its error is not memoized. *)
        let outcome =
          try Job.run ?store:t.s_store ~runner spec
          with e -> Error (Printexc.to_string e)
        in
        (match outcome with
        | Ok (_, `Cold) ->
            Atomic.incr t.a_completed;
            Atomic.incr t.a_cold
        | Ok (_, `Cached) ->
            Atomic.incr t.a_completed;
            Atomic.incr t.a_cached
        | Error _ -> Atomic.incr t.a_failed);
        Atomic.decr t.a_busy;
        Mutex.lock t.mu;
        entry.e_state <- Done outcome;
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        worker_loop t
      end

let create ?(domains = 1) ?store () =
  if domains < 1 then invalid_arg "Scheduler.create: domains must be >= 1";
  let scope = Telemetry.scope "serve" in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let t =
    {
      mu;
      cond;
      jobs = Hashtbl.create 64;
      queue = Queue.create ();
      (* The queue shares the scheduler's monitor, so one wait in
         [worker_loop] covers "a job arrived or a window arrived". *)
      wq =
        Wqueue.create ~monitor:(mu, cond)
          ~inflight_cap:(max 4 (2 * domains))
          ();
      stopping = false;
      workers = Array.make domains None;
      s_store = store;
      s_domains = domains;
      n_submitted = 0;
      n_joins = 0;
      n_mem_hits = 0;
      a_completed = Atomic.make 0;
      a_failed = Atomic.make 0;
      a_cold = Atomic.make 0;
      a_cached = Atomic.make 0;
      a_busy = Atomic.make 0;
      tel = Telemetry.family scope serve_counters;
      h_queue_depth =
        Telemetry.histogram scope ~unit_:"jobs"
          ~doc:"queue depth observed at each submission" "queue.depth";
      h_busy =
        Telemetry.histogram scope ~unit_:"workers"
          ~doc:"busy workers observed at each submission" "workers.busy";
    }
  in
  for i = 0 to domains - 1 do
    t.workers.(i) <- Some (Domain.spawn (fun () -> worker_loop t))
  done;
  t

let submit t spec =
  let key = Bor_store.Key.hex (Job.key spec) in
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    invalid_arg "Scheduler.submit: scheduler is shut down"
  end;
  t.n_submitted <- t.n_submitted + 1;
  Telemetry.observe t.h_queue_depth (Queue.length t.queue);
  Telemetry.observe t.h_busy (Atomic.get t.a_busy);
  let disposition =
    match Hashtbl.find_opt t.jobs key with
    | Some { e_state = Done (Ok _); _ } ->
        t.n_mem_hits <- t.n_mem_hits + 1;
        `Hit
    | Some { e_state = Queued | Running; _ } ->
        t.n_joins <- t.n_joins + 1;
        `Joined
    | None | Some { e_state = Done (Error _); _ } ->
        (* Errors are never memoized: a failed key runs again. *)
        Hashtbl.replace t.jobs key { e_spec = spec; e_state = Queued };
        Queue.push key t.queue;
        Condition.broadcast t.cond;
        `Queued
  in
  Telemetry.publish t.tel t;
  Mutex.unlock t.mu;
  (key, disposition)

let job_state t key =
  Mutex.lock t.mu;
  let st = Option.map (fun e -> e.e_state) (Hashtbl.find_opt t.jobs key) in
  Mutex.unlock t.mu;
  st

let await t key =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.jobs key with
  | None ->
      Mutex.unlock t.mu;
      None
  | Some entry ->
      let rec wait () =
        match entry.e_state with
        | Done outcome -> outcome
        | Queued | Running ->
            Condition.wait t.cond t.mu;
            wait ()
      in
      let outcome = wait () in
      Mutex.unlock t.mu;
      Some outcome

let stats t =
  Mutex.lock t.mu;
  Telemetry.publish t.tel t;
  let base =
    [
      ("submitted", t.n_submitted);
      ("completed", Atomic.get t.a_completed);
      ("failed", Atomic.get t.a_failed);
      ("cache_hits", t.n_mem_hits + Atomic.get t.a_cached);
      ("cache_misses", Atomic.get t.a_cold);
      ("dedup_joins", t.n_joins);
      ("queue_depth", Queue.length t.queue);
      ("workers_busy", Atomic.get t.a_busy);
      ("workers", t.s_domains);
    ]
  in
  Mutex.unlock t.mu;
  (* Window-queue depth/in-flight lock the shared monitor — read them
     after releasing it (the counters themselves are atomics). *)
  let base =
    base
    @ [
        ("windows_queued", Wqueue.depth t.wq);
        ("windows_inflight", Wqueue.inflight_total t.wq);
        ("windows_dispatched", Wqueue.dispatched t.wq);
        ("windows_executed", Wqueue.executed t.wq);
        ("windows_shared_shard_hits", Wqueue.shared_hits t.wq);
        ("windows_failed", Wqueue.failed t.wq);
      ]
  in
  match t.s_store with
  | None -> base
  | Some st ->
      let s = Bor_store.Store.stats st in
      base
      @ [
          ("store_hits", s.Bor_store.Store.st_hits);
          ("store_misses", s.Bor_store.Store.st_misses);
          ("store_corrupt", s.Bor_store.Store.st_corrupt);
          ("store_puts", s.Bor_store.Store.st_puts);
          ("store_evictions", s.Bor_store.Store.st_evictions);
        ]

(* One-shot plaintext metrics dump ([bor serve --metrics-socket]):
   prometheus-style [name value] lines derived from [stats], plus a
   per-job in-flight gauge. Text, not a wire frame — scrapable with
   netcat. *)
let metrics_text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "bor_serve_%s %d\n" k v))
    (stats t);
  List.iter
    (fun (job, n) ->
      Buffer.add_string b
        (Printf.sprintf "bor_serve_job_inflight_windows{job=\"%s\"} %d\n" job n))
    (Wqueue.inflight_by_job t.wq);
  Buffer.contents b

let shutdown t =
  Mutex.lock t.mu;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu;
  if not already then
    Array.iteri
      (fun i d ->
        match d with
        | Some d ->
            Domain.join d;
            t.workers.(i) <- None
        | None -> ())
      t.workers
