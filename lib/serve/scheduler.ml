module Telemetry = Bor_telemetry.Telemetry

type disposition = [ `Queued | `Joined | `Hit ]
type outcome = (string * [ `Cold | `Cached ], string) result
type state = Queued | Running | Done of outcome

type entry = { e_spec : Job.spec; mutable e_state : state }

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  jobs : (string, entry) Hashtbl.t;
  (* the jobs posted to [wq] that no worker has started yet *)
  mutable n_queued : int;
  wq : Wqueue.t;
  mutable workers : Bor_exec.Pool.crew option;  (* [None] once shut down *)
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

(* One queued job, posted to the window queue and run by whichever
   domain's [Wqueue.work] takes it: a worker, or the one shutting the
   scheduler down. *)
let run_job t key entry () =
  Mutex.lock t.mu;
  entry.e_state <- Running;
  t.n_queued <- t.n_queued - 1;
  Atomic.incr t.a_busy;
  Mutex.unlock t.mu;
  (* A sampled job's windows go through the global queue instead of its
     own domain fan-out; every other backend ignores the runner. [key]
     doubles as the queue's job id, so per-job in-flight gauges and stop
     flags are addressable by the same hex the client polls. *)
  let spec = entry.e_spec in
  let runner = Wqueue.runner t.wq ~job:key ~config:spec.Job.sp_config in
  (* No exception may end the work loop: the job fails instead, and its
     error is not memoized. The job runs on a private registry, so one
     drained by the shutting-down domain leaves that domain's own
     telemetry as it was. *)
  let outcome =
    try
      fst
        (Telemetry.isolated ~enabled:false (fun () ->
             Job.run ?store:t.s_store ~runner spec))
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
  Mutex.unlock t.mu

let create ?(domains = 1) ?store () =
  if domains < 1 then invalid_arg "Scheduler.create: domains must be >= 1";
  let scope = Telemetry.scope "serve" in
  let wq = Wqueue.create ~inflight_cap:(max 4 (2 * domains)) () in
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    jobs = Hashtbl.create 64;
    n_queued = 0;
    wq;
    (* The workers: [domains] pool copies of the queue's work loop,
       which runs window units before starting queued jobs. *)
    workers = Some (Bor_exec.Pool.help domains (fun () -> Wqueue.work wq));
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

let submit t spec =
  let key = Bor_store.Key.hex (Job.key spec) in
  Mutex.lock t.mu;
  if Option.is_none t.workers then begin
    Mutex.unlock t.mu;
    invalid_arg "Scheduler.submit: scheduler is shut down"
  end;
  t.n_submitted <- t.n_submitted + 1;
  Telemetry.observe t.h_queue_depth t.n_queued;
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
        let entry = { e_spec = spec; e_state = Queued } in
        Hashtbl.replace t.jobs key entry;
        t.n_queued <- t.n_queued + 1;
        Wqueue.post t.wq (run_job t key entry);
        `Queued
  in
  Telemetry.publish t.tel t;
  Mutex.unlock t.mu;
  (key, disposition)

let job_state t key =
  Mutex.protect t.mu (fun () ->
      Option.map (fun e -> e.e_state) (Hashtbl.find_opt t.jobs key))

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
      ("queue_depth", t.n_queued);
      ("workers_busy", Atomic.get t.a_busy);
      ("workers", t.s_domains);
    ]
  in
  Mutex.unlock t.mu;
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

(* Close the queue, drain it here (so every queued job runs even if no
   worker claimed a copy of the loop), then join the copies that did. *)
let shutdown t =
  Mutex.lock t.mu;
  let workers = t.workers in
  t.workers <- None;
  Mutex.unlock t.mu;
  Option.iter
    (fun crew ->
      Wqueue.close t.wq;
      Wqueue.work t.wq;
      Bor_exec.Pool.join crew)
    workers
