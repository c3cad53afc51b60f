(* The serve workload: the real [bor serve --domains 2 --store DIR] as a
   subprocess, driven by two closed-loop client threads through
   [Bor_serve.Client]. The catalogue is 16 distinct jobs: 4 apps x
   {detailed, sampled at the default plan, sampled --rank-bands 4,
   sampled --ci-target 2}. A run is a series of rounds, alternating
   between the catalogue's two halves (two apps each), each on a fresh
   store, with three phases:

   - cold: every job of the half submitted once — [Job.run], shard
     publishing and [Store.put];
   - hit: Zipf-drawn resubmissions of the half, answered from the
     scheduler's memory over the wire;
   - restart: a new server on the same store; every key submitted once
     must come back [cached].

   Rounds repeat while the run's time allows (at least two per half).
   Every payload's SHA-256 must match the reference row (or, for seeds
   without one, the first answer's) in every phase of every round.
   Throughput is cold-phase jobs per second over the catalogue, each
   half at its best round; latency is the median submit-to-payload time
   over every hit of the run. *)

module Client = Bor_serve.Client
module Json = Bor_telemetry.Json
module Job = Bor_serve.Job

type job = {
  name : string;
  spec : Job.spec;
  request : Json.t;
  key : string;
  seeded : bool;  (** the payload depends on the plan's phase seed *)
}

let apps ~quick = if quick then [ "jython" ] else [ "antlr"; "bloat"; "jython"; "xalan" ]

let catalogue c =
  let seed = c.Ctx.o.seed in
  let plan_s = Printf.sprintf "2000:1000:200000:%d" seed in
  let plan =
    match Bor_uarch.Sampling_plan.of_string plan_s with
    | Ok p -> p
    | Error e -> failwith e
  in
  List.concat_map
    (fun app ->
      let prog =
        Trace.span c.tr ~req:app "minic.compile" (fun _ ->
            (Bor_workload.Apps.compile app Kernels.brr64).program)
      in
      let mk suffix ?rank_bands ?ci_target backend =
        let sampled = backend = "sampled" in
        let spec =
          Job.make
            ?plan:(if sampled then Some plan else None)
            ?rank_bands ?ci_target ~backend prog
        in
        {
          name = app ^ "/" ^ suffix;
          spec;
          request =
            Client.submit_request
              ?plan:(if sampled then Some plan_s else None)
              ?rank_bands ?ci_target ~backend prog;
          key = Bor_store.Key.hex (Job.key spec);
          seeded = sampled;
        }
      in
      [
        mk "detailed" "detailed";
        mk "sampled" "sampled";
        mk "rank4" ~rank_bands:4 "sampled";
        mk "ci2" ~ci_target:2.0 "sampled";
      ])
    (apps ~quick:c.o.quick)

(* ---------------------------------------------------------- server *)

(* Servers still running and scratch directories still present: on
   any exit, including one forced by a signal, the servers are stopped
   first and the directories removed after. *)
let live = ref []
let scratch = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      List.iter Ctx.rm_rf !scratch)

type server = { pid : int; socket : string }

let str_field k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let start c ~store ~socket =
  if not (Sys.file_exists c.Ctx.o.bor) then
    failwith
      (Printf.sprintf "no bor binary at %s (dune build ./bin/bor.exe, or --bor PATH)"
         c.o.bor);
  (try Sys.remove socket with Sys_error _ -> ());
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let args =
    [| c.Ctx.o.bor; "serve"; "--socket"; socket; "--domains"; "2"; "--store"; store |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null_in;
        Unix.close null_out)
      (fun () -> Unix.create_process c.o.bor args null_in null_out Unix.stderr)
  in
  live := pid :: !live;
  let give_up = Trace.now () +. 30. in
  let rec wait () =
    match Client.request ~socket Client.stats_request with
    | Ok _ -> { pid; socket }
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith ("bor serve exited before listening: " ^ e));
      if Trace.now () > give_up then failwith ("bor serve never listened: " ^ e);
      Unix.sleepf 0.002;
      wait ()
  in
  wait ()

(* Stop a server and return its peak RSS, read while it still runs. *)
let stop s =
  let rss = Ctx.peak_rss_mb s.pid in
  ignore (Client.request ~socket:s.socket Client.shutdown_request);
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  rss

(* ---------------------------------------------------------- requests *)

type answer = {
  latency : float;
  disposition : string;
  source : string;
  payload : string;  (** hashed after the phase, off the timed path *)
  error : string option;
  queue_wait : float option;  (** traced cold submissions only *)
}

let failed_answer latency e =
  { latency; disposition = ""; source = ""; payload = ""; error = Some e; queue_wait = None }

(* Submit, then fetch the payload; traced cold submissions also poll
   [status] until the scheduler reports the job running, which measures
   the time it waited in the queue. *)
let submit_and_fetch c ~socket ~req ?(poll = false) job =
  let tr = c.Ctx.tr in
  let t0 = Trace.now () in
  Trace.span tr ~req "serve.request" (fun root ->
      match
        Trace.span tr ~parent:root ~req "wire.submit" (fun _ ->
            Client.request ~socket job.request)
      with
      | Error e -> failed_answer (Trace.now () -. t0) e
      | Ok resp -> (
        let t_sub = Trace.now () in
        let disposition = Option.value ~default:"" (str_field "disposition" resp) in
        match str_field "key" resp with
        | None ->
          failed_answer (Trace.now () -. t0)
            (Option.value ~default:"submit refused" (str_field "error" resp))
        | Some key when key <> job.key ->
          failed_answer (Trace.now () -. t0)
            (Printf.sprintf "server key %s, expected %s" key job.key)
        | Some key -> (
          let queue_wait =
            if not poll then None
            else
              Trace.span tr ~parent:root ~req "scheduler.queue_wait" (fun _ ->
                  let rec go () =
                    match Client.request ~socket (Client.status_request key) with
                    | Ok r when str_field "state" r = Some "queued" ->
                      Unix.sleepf 0.002;
                      go ()
                    | _ -> Some (Trace.now () -. t_sub)
                  in
                  go ())
          in
          match
            Trace.span tr ~parent:root ~req "serve.result" (fun _ ->
                Client.request ~socket (Client.result_request ~wait:true key))
          with
          | Error e -> failed_answer (Trace.now () -. t0) e
          | Ok r -> (
            let latency = Trace.now () -. t0 in
            match str_field "payload" r with
            | None ->
              failed_answer latency
                (Option.value ~default:"no payload" (str_field "error" r))
            | Some payload ->
              {
                latency;
                disposition;
                source = Option.value ~default:"" (str_field "source" r);
                payload;
                error = None;
                queue_wait;
              }))))

(* Two closed-loop client threads, each taking its next request from
   [next] until it says stop; answers come back in completion order. *)
let two_clients (next : int -> (string * job) option) run =
  let lock = Mutex.create () in
  let out = ref [] in
  let worker id () =
    let rec loop () =
      match next id with
      | None -> ()
      | Some (req, job) ->
        let a = run ~req job in
        Mutex.lock lock;
        out := (job, a) :: !out;
        Mutex.unlock lock;
        loop ()
    in
    loop ()
  in
  let threads = List.init 2 (fun id -> Thread.create (worker id) ()) in
  List.iter Thread.join threads;
  List.rev !out

let check_answer c ~phase ~expect_source canonical (job, a) =
  let errs =
    match a.error with
    | Some e -> [ e ]
    | None ->
      let sha = Bor_telemetry.Sha256.digest a.payload in
      let expected =
        match Hashtbl.find_opt canonical job.name with
        | Some e -> e
        | None ->
          Hashtbl.replace canonical job.name sha;
          sha
      in
      Ctx.expect ~what:(job.name ^ " payload sha256") expected sha
      @
      match expect_source with
      | Some s -> Ctx.expect ~what:(job.name ^ " source") s a.source
      | None -> []
  in
  Ctx.record c ~op:(phase ^ " " ^ job.name) errs

(* The in-process passes a traced run adds: the service time of every
   catalogue job on the server's own path (one fresh store shared by
   the catalogue, the window queue, one thread), store reads of the
   payloads that pass wrote, and the shard publishing of one sampled
   job replayed step by step. *)
let in_process c jobs ~scratch =
  let tr = c.Ctx.tr in
  let store =
    match Bor_store.Store.create (Filename.concat scratch "store") with
    | Ok s -> s
    | Error e -> failwith e
  in
  let service =
    List.map
      (fun job ->
        Ctx.gc c;
        let runner =
          if job.spec.Job.sp_backend = "sampled" then
            let wq = Bor_serve.Wqueue.create ~store ~inflight_cap:4 () in
            Some
              (Bor_serve.Wqueue.runner wq ~job:job.key
                 ~config:job.spec.Job.sp_config)
          else None
        in
        let t0 = Trace.now () in
        let r =
          Trace.span tr ~req:job.name "job.run" (fun _ ->
              Job.run ~store ?runner job.spec)
        in
        let dt = Trace.now () -. t0 in
        (match r with
        | Ok _ -> Ctx.record c ~op:("in-process " ^ job.name) []
        | Error e -> Ctx.record c ~op:("in-process " ^ job.name) [ e ]);
        (job.name, dt))
      jobs
  in
  let finds =
    List.map
      (fun job ->
        let t0 = Trace.now () in
        let r =
          Trace.span tr ~req:job.name "store.find" (fun _ ->
              Bor_store.Store.find store (Job.key job.spec))
        in
        Ctx.record c ~op:("store find " ^ job.name)
          (if r = None then [ job.name ^ ": payload missing from the store" ]
           else []);
        Trace.now () -. t0)
      jobs
  in
  (* Shard publishing as [Wqueue] does it, one step per span. *)
  let publish =
    match List.find_opt (fun j -> j.spec.Job.sp_backend = "sampled") jobs with
    | None -> []
    | Some job ->
      let store =
        match Bor_store.Store.create (Filename.concat scratch "shards") with
        | Ok s -> s
        | Error e -> failwith e
      in
      let req = job.name and prog = job.spec.Job.sp_program in
      let plan = Option.get job.spec.Job.sp_plan in
      let p = Bor_uarch.Pipeline.create prog in
      let digest = Bor_exec.Checkpoint.program_digest prog in
      let out = ref [] in
      Sim.sweep plan p
        ~warm:(fun n -> ignore (Bor_uarch.Pipeline.run_warming ~max_steps:n p))
        ~at_boundary:(fun boundary ->
          let ck =
            Trace.span tr ~req "checkpoint.capture" (fun _ ->
                Bor_exec.Checkpoint.capture ~program_digest:digest p)
          in
          let key = Bor_store.Key.shard ~program_digest:digest ~plan ~boundary () in
          let t0 = Trace.now () in
          let bytes =
            Trace.span tr ~req "wqueue.publish" (fun id ->
                let s =
                  Trace.span tr ~parent:id ~req "checkpoint.serialize" (fun _ ->
                      Bor_exec.Checkpoint.to_string ck)
                in
                (match
                   Trace.span tr ~parent:id ~req "store.put" (fun _ ->
                       Bor_store.Store.put store key s)
                 with
                | Ok () -> ()
                | Error e -> failwith e);
                String.length s)
          in
          out := (Trace.now () -. t0, bytes) :: !out);
      List.rev !out
  in
  (service, finds, publish)

(* ---------------------------------------------------------- workload *)

type result = {
  e2e : (string * float * float list) list;
  layers : (string * float * float list) list;
}

(* What one round measured. *)
type round = {
  cold : (job * answer) list;
  cold_wall : float;
  hits : (job * answer) list;
  restart : (job * answer) list;
  store_bytes : int;
  rss : float;  (** peak of the round's two servers *)
  server_stats : (string * int) list;  (** after the hit phase *)
}

let server_counters socket =
  match Client.request ~socket Client.stats_request with
  | Ok r -> (
    match Json.member "stats" r with
    | Some (Json.Obj l) ->
      List.filter_map (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None) l
    | _ -> [])
  | Error _ -> []

(* One round on a fresh store: cold phase, [hits] Zipf resubmissions,
   then a second server on the same store answering every key once. *)
let round c ~index ~jobs ~canonical ~server ~store_dir ~socket ~hits =
  let traced = Trace.enabled c.Ctx.tr in
  let tag i = Printf.sprintf "r%d#%d" index i in
  let n = List.length jobs in
  (* Cold: both clients drain the catalogue in order. *)
  let queue = ref (List.mapi (fun i j -> (j.key ^ tag i, j)) jobs) in
  let qlock = Mutex.create () in
  let take _ =
    Mutex.lock qlock;
    let r = match !queue with [] -> None | x :: rest -> queue := rest; Some x in
    Mutex.unlock qlock;
    r
  in
  let t0 = Trace.now () in
  let cold =
    two_clients take (fun ~req job -> submit_and_fetch c ~socket ~req ~poll:traced job)
  in
  let cold_wall = Trace.now () -. t0 in
  List.iter (check_answer c ~phase:"cold" ~expect_source:(Some "cold") canonical) cold;
  let store_bytes = Ctx.du store_dir in
  (* Hit: a fixed number of Zipf draws, seeded per round and client. *)
  let jobs_a = Array.of_list jobs in
  let zipf = Bor_util.Zipf.create ~n ~alpha:1.0 in
  let rngs =
    Array.init 2 (fun i ->
        Bor_util.Prng.create ~seed:((c.o.seed * 7919) + (index * 2) + i))
  in
  let issued = Atomic.make 0 in
  let next id =
    let i = Atomic.fetch_and_add issued 1 in
    if i >= hits then None
    else
      let j = jobs_a.(Bor_util.Zipf.sample zipf rngs.(id)) in
      Some (j.key ^ tag (n + i), j)
  in
  let hit_answers = two_clients next (fun ~req job -> submit_and_fetch c ~socket ~req job) in
  List.iter
    (fun ((job, a) as ja) ->
      if a.error = None && a.disposition <> "hit" then
        Ctx.record c ~op:("hit " ^ job.name)
          [ job.name ^ ": resubmission disposition " ^ a.disposition ]
      else check_answer c ~phase:"hit" ~expect_source:None canonical ja)
    hit_answers;
  let server_stats = server_counters socket in
  let rss_a = stop server in
  (* Restart: a new server on the same store. *)
  let server2 = start c ~store:store_dir ~socket in
  let restart =
    List.mapi
      (fun i j -> (j, submit_and_fetch c ~socket ~req:(j.key ^ tag (n + hits + i)) j))
      jobs
  in
  List.iter (check_answer c ~phase:"restart" ~expect_source:(Some "cached") canonical) restart;
  let rss_b = stop server2 in
  {
    cold;
    cold_wall;
    hits = hit_answers;
    restart;
    store_bytes;
    rss = Float.max rss_a rss_b;
    server_stats;
  }

let run c ~deadline_after =
  let o = c.Ctx.o in
  let base = Filename.concat Ctx.work (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Ctx.rm_rf base;
  Ctx.mkdir_p base;
  scratch := base :: !scratch;
  let socket = Filename.concat base "s.sock" in
  let store_of i = Filename.concat base (Printf.sprintf "store%d" i) in
  (* Set-up: compile the apps, build the requests, start the server and
     wait for its socket. *)
  let jobs, first_server =
    Ctx.setup c
      ~between:(fun (_, s) -> ignore (stop s))
      (fun () ->
        let jobs = catalogue c in
        (jobs, start c ~store:(store_of 0) ~socket))
  in
  let canonical = Hashtbl.create 16 in
  List.iter
    (fun j ->
      match Reference.find c.refs ~kind:"serve" ~name:j.name ~seed:o.seed with
      | Some row -> (
        match List.assoc_opt "sha256" row with
        | Some sha -> Hashtbl.replace canonical j.name sha
        | None -> ())
      | None -> ())
    jobs;
  (* Rounds alternate between the two halves of the catalogue (two apps
     each), each round on its own fresh store so its cold phase is
     really cold; short rounds put many separate cold and hit phases
     into one run. A traced run gives the rounds half its time: the
     in-process passes after them take the rest. *)
  let traced = Trace.enabled c.tr in
  let halves =
    let k = List.length jobs / 2 in
    [| List.filteri (fun i _ -> i < k) jobs; List.filteri (fun i _ -> i >= k) jobs |]
  in
  let min_rounds = if o.quick then 1 else if traced then 2 else 4 in
  let hits = if o.quick then 200 else 500 in
  let deadline =
    Trace.now () +. if traced then deadline_after /. 2. else deadline_after
  in
  (* A further round starts only if a round as long as the longest so
     far still ends by the deadline. Set-up samples are taken between
     rounds, when no server runs. *)
  let since = Trace.now () in
  let rec rounds i longest acc =
    if i >= min_rounds && Trace.now () +. longest > deadline then List.rev acc
    else begin
      let t0 = Trace.now () in
      let store_dir = store_of i in
      let server =
        if i = 0 then first_server else start c ~store:store_dir ~socket
      in
      let jobs = if o.quick then jobs else halves.(i mod 2) in
      let r = round c ~index:i ~jobs ~canonical ~server ~store_dir ~socket ~hits in
      Ctx.rm_rf store_dir;
      let longest = Float.max longest (Trace.now () -. t0) in
      Ctx.top_up_setup c ~since;
      rounds (i + 1) longest ((i mod 2, r) :: acc)
    end
  in
  let indexed = rounds 0 0. [] in
  let rs = List.map snd indexed in
  let lat l = List.map (fun (_, a) -> a.latency) l in
  let all f = List.concat_map f rs in
  let hit_lat = all (fun r -> lat r.hits) in
  (* [f] of every round, grouped by catalogue half, each group reduced
     by [pick]: throughput takes each half's best round and adds the
     halves up to the whole catalogue. *)
  let per_half f pick =
    List.sort_uniq compare (List.map fst indexed)
    |> List.map (fun h ->
           List.filter_map (fun (h', r) -> if h = h' then Some (f r) else None) indexed
           |> pick)
  in
  let cold_jobs = per_half (fun r -> float_of_int (List.length r.cold)) List.hd in
  let cold_best = per_half (fun r -> r.cold_wall) (List.fold_left Float.min infinity) in
  let sum = List.fold_left ( +. ) 0. in
  let e2e =
    [
      ( "throughput",
        sum cold_jobs /. sum cold_best,
        List.map (fun r -> float_of_int (List.length r.cold) /. r.cold_wall) rs );
      ("latency_ms", Stats.median hit_lat *. 1000., List.map (fun x -> x *. 1000.) hit_lat);
      ( "peak_rss_mb",
        List.fold_left Float.max 0. (per_half (fun r -> r.rss) Stats.median),
        List.map (fun r -> r.rss) rs );
    ]
  in
  let layers =
    if not traced then []
    else begin
      let last = List.nth rs (List.length rs - 1) in
      (* Wire round trips, and the in-process passes, on a round's
         worth of fresh state after the timed rounds. *)
      let store_dir = store_of 1000 in
      let server = start c ~store:store_dir ~socket in
      let rtts =
        List.init 200 (fun _ ->
            let t0 = Trace.now () in
            ignore
              (Trace.span c.tr "wire.rtt" (fun _ ->
                   Client.request ~socket Client.stats_request));
            Trace.now () -. t0)
      in
      ignore (stop server);
      let service, finds, publish =
        in_process c jobs ~scratch:(Filename.concat base "inproc")
      in
      let stat k =
        float_of_int (Option.value ~default:0 (List.assoc_opt k last.server_stats))
      in
      let rtt = Stats.mean rtts in
      let cold = all (fun r -> r.cold) in
      let waits = List.filter_map (fun (_, a) -> a.queue_wait) cold in
      let cold_total = List.fold_left (fun a (_, x) -> a +. x.latency) 0. cold in
      let explained =
        List.fold_left
          (fun acc (j, a) ->
            acc +. rtt
            +. Option.value ~default:0. a.queue_wait
            +. List.assoc j.name service)
          0. cold
      in
      let l = Ctx.Layers.of_trace ~root:"serve.request" c.tr in
      let mean_ms xs = match xs with [] -> 0. | _ -> Stats.mean xs *. 1000. in
      let ms xs = List.map (fun x -> x *. 1000.) xs in
      [
        ("serve.cold_p50_ms", Stats.median (lat cold) *. 1000., ms (lat cold));
        ("serve.hit_p99_us", Stats.percentile hit_lat 99. *. 1e6, []);
        ( "serve.restart_p50_ms",
          Stats.median (all (fun r -> lat r.restart)) *. 1000.,
          ms (all (fun r -> lat r.restart)) );
        ( "store.mb",
          sum (per_half (fun r -> float_of_int r.store_bytes) Stats.median) /. 1048576.,
          [] );
        ("scheduler.joins", stat "dedup_joins", []);
        ("scheduler.hits", stat "cache_hits", []);
        ( "wqueue.share_ratio",
          (let d = stat "windows_dispatched" in
           if d = 0. then 0. else stat "windows_shared_shard_hits" /. d),
          [] );
        ("wire.rtt_us", rtt *. 1e6, List.map (fun x -> x *. 1e6) rtts);
        ( "scheduler.queue_wait_ms",
          (match waits with [] -> 0. | w -> Stats.median w *. 1000.),
          ms waits );
        ("job.run_ms", mean_ms (List.map snd service), ms (List.map snd service));
        ("store.find_ms", mean_ms finds, []);
        ("wqueue.publish_ms", mean_ms (List.map fst publish), []);
        ("store.put_ms", Ctx.Layers.mean l "store.put" *. 1000., []);
        ("checkpoint.serialize_ms", Ctx.Layers.mean l "checkpoint.serialize" *. 1000., []);
        ("checkpoint.capture_us", Ctx.Layers.mean l "checkpoint.capture" *. 1e6, []);
        ( "checkpoint.bytes",
          (match publish with
          | [] -> 0.
          | p -> Stats.mean (List.map (fun (_, b) -> float_of_int b) p)),
          [] );
        ("trace.coverage_pct", 100. *. explained /. cold_total, []);
      ]
    end
  in
  { e2e; layers }
