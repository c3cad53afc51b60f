module Json = Bor_telemetry.Json
module Telemetry = Bor_telemetry.Telemetry

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let str_field name j =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let bool_field name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let stats_json sched =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Scheduler.stats sched))

let disposition_string = function
  | `Queued -> "queued"
  | `Joined -> "joined"
  | `Hit -> "hit"

let source_string = function `Cold -> "cold" | `Cached -> "cached"

(* A submit field that is present must have its type: a wrong-typed
   one is a refusal, never a silent default that keys some other job. *)
let field name expected conv req =
  match Option.map conv (Json.member name req) with
  | Some None -> Error (Printf.sprintf "submit: %s: expected %s" name expected)
  | v -> Ok (Option.join v)

let string_of = function Json.String s -> Some s | _ -> None
let int_of = function Json.Int n -> Some n | _ -> None

let parse_spec req =
  let ( let* ) = Result.bind in
  let* hex = field "program" "a hex string" string_of req in
  let* hex =
    Option.to_result ~none:"submit: missing \"program\" (hex object image)" hex
  in
  (* An image the simulators cannot load is refused here, before it is
     keyed or queued, not left to fail its run. *)
  let* program =
    Result.map_error (( ^ ) "submit: program: ")
      (let* p = Result.bind (Wire.of_hex hex) Bor_isa.Objfile.load in
       Result.map (fun () -> p) (Bor_sim.Machine.check_data p))
  in
  let* backend = field "backend" "a string" string_of req in
  let* plan = field "plan" "a W:D:P[:SEED] string" string_of req in
  let* rank_bands = field "rank_bands" "an integer" int_of req in
  (* ci_target arrives as a decimal string (see Client.submit_request);
     a bare JSON int is accepted too, for hand-written clients. *)
  let* ci_target =
    field "ci_target" "a decimal string or an integer"
      (function
        | Json.String s -> float_of_string_opt s
        | Json.Int n -> Some (float_of_int n)
        | _ -> None)
      req
  in
  let backend = Option.value ~default:"detailed" backend in
  Result.map_error (( ^ ) "submit: ")
  @@ let* plan =
       match plan with
       | None when rank_bands <> None || ci_target <> None ->
           Error "rank_bands/ci_target need a \"plan\""
       | None -> Ok None
       | Some s ->
           Bor_uarch.Sampling_plan.(
             Result.bind (of_string s) (with_selection ?rank_bands ?ci_target))
           |> Result.map Option.some
     in
     let* _ = Bor_exec.Backend.Kind.of_name backend plan in
     Ok (Job.make ?plan ~backend program)

let handle sched req =
  match str_field "op" req with
  | Some "submit" -> (
      match parse_spec req with
      | Error e -> err e
      | Ok spec -> (
          (* Submission to a scheduler already shutting down is a
             structured refusal, not a dead server. *)
          match Scheduler.submit sched spec with
          | key, disposition ->
              ok
                [
                  ("key", Json.String key);
                  ("disposition", Json.String (disposition_string disposition));
                ]
          | exception Invalid_argument m -> err m))
  | Some "status" -> (
      match str_field "key" req with
      | None -> err "status: missing \"key\""
      | Some key ->
          let state, source =
            match Scheduler.job_state sched key with
            | None -> ("unknown", None)
            | Some Scheduler.Queued -> ("queued", None)
            | Some Scheduler.Running -> ("running", None)
            | Some (Scheduler.Done (Ok (_, src))) -> ("done", Some (source_string src))
            | Some (Scheduler.Done (Error _)) -> ("failed", None)
          in
          ok
            ([ ("state", Json.String state) ]
            @ (match source with
              | None -> []
              | Some s -> [ ("source", Json.String s) ])
            @ [ ("stats", stats_json sched) ]))
  | Some "result" -> (
      match str_field "key" req with
      | None -> err "result: missing \"key\""
      | Some key -> (
          let wait = Option.value ~default:false (bool_field "wait" req) in
          let outcome =
            if wait then Scheduler.await sched key
            else
              match Scheduler.job_state sched key with
              | Some (Scheduler.Done outcome) -> Some outcome
              | Some _ | None -> None
          in
          match outcome with
          | Some (Ok (payload, source)) ->
              ok
                [
                  ("source", Json.String (source_string source));
                  ("payload", Json.String payload);
                ]
          | Some (Error e) -> err ("job failed: " ^ e)
          | None -> (
              match Scheduler.job_state sched key with
              | None -> err (Printf.sprintf "unknown job %s" key)
              | Some _ -> err (Printf.sprintf "job %s not finished" key))))
  | Some "stats" -> ok [ ("stats", stats_json sched) ]
  | Some "shutdown" -> ok []
  | Some op -> err (Printf.sprintf "unknown op %S" op)
  | None -> err "missing \"op\""

let is_shutdown req =
  match str_field "op" req with Some "shutdown" -> true | _ -> false

(* One conversation: frames until clean EOF or a shutdown request.
   Returns [true] when the server should stop. *)
let serve_connection sched fd =
  let rec loop () =
    match Wire.read_json fd with
    | None -> false
    | Some req ->
        let resp = handle sched req in
        Wire.write_json fd resp;
        if is_shutdown req then true else loop ()
  in
  loop ()

(* Per-connection bookkeeping: handler threads update the atomics; the
   accept thread alone publishes them into serve.conns.* (telemetry
   instruments are not thread-safe, the accept thread is their single
   writer). *)
type conns = {
  cn_accepted : int Atomic.t;
  cn_proto_errors : int Atomic.t;
  cn_io_errors : int Atomic.t;
  cn_active : int Atomic.t;
  tel : conns Telemetry.family;
  h_active : Telemetry.histogram;
}

let conns_counters =
  [|
    ("accepted", "connections", "client connections accepted",
     fun c -> Atomic.get c.cn_accepted);
    ("protocol_errors", "connections",
     "connections dropped on malformed traffic",
     fun c -> Atomic.get c.cn_proto_errors);
    ("io_errors", "connections",
     "connections dropped on an I/O failure or any other exception",
     fun c -> Atomic.get c.cn_io_errors);
  |]

let conns_create () =
  let scope = Telemetry.scope "serve.conns" in
  {
    cn_accepted = Atomic.make 0;
    cn_proto_errors = Atomic.make 0;
    cn_io_errors = Atomic.make 0;
    cn_active = Atomic.make 0;
    tel = Telemetry.family scope conns_counters;
    h_active =
      Telemetry.histogram scope ~unit_:"connections"
        ~doc:"concurrent connections observed at each accept" "active";
  }

let listen_on socket =
  (try if Sys.file_exists socket then Sys.remove socket with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 16
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error
        (Printf.sprintf "serve: cannot listen on %s: %s" socket
           (Unix.error_message e))

let run ~socket ?metrics_socket ?(on_ready = fun () -> ()) sched =
  (* A reply to a client that has gone fails as EPIPE, costing only its
     connection, instead of a SIGPIPE that ends the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match listen_on socket with
  | Error e -> Error e
  | Ok listener -> (
      let metrics_listener =
        match metrics_socket with
        | None -> Ok None
        | Some path -> Result.map Option.some (listen_on path)
      in
      match metrics_listener with
      | Error e ->
          Unix.close listener;
          (try Sys.remove socket with Sys_error _ -> ());
          Error e
      | Ok metrics_listener ->
          let conns = conns_create () in
          let stop = Atomic.make false in
          (* Live handler threads, by connection id: shutdown shuts the
             lingering fds down (EOF-ing any blocked read) then joins. *)
          let handlers : (int, Unix.file_descr * Thread.t) Hashtbl.t =
            Hashtbl.create 16
          in
          let hm = Mutex.create () in
          let next_id = ref 0 in
          let handler id fd () =
            (* A client that talks garbage, dies mid-frame or vanishes
               before its reply only costs its own connection. Nothing
               escapes this match, so the release below runs on every
               exit. *)
            (match serve_connection sched fd with
            | should_stop -> if should_stop then Atomic.set stop true
            | exception Wire.Protocol_error _ ->
                Atomic.incr conns.cn_proto_errors
            | exception _ -> Atomic.incr conns.cn_io_errors);
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Atomic.decr conns.cn_active;
            Mutex.lock hm;
            Hashtbl.remove handlers id;
            Mutex.unlock hm
          in
          on_ready ();
          let selectees =
            listener :: Option.to_list metrics_listener
          in
          while not (Atomic.get stop) do
            (* Select with a short timeout so a shutdown raised by a
               handler thread is noticed promptly even with no new
               connections arriving. *)
            match Unix.select selectees [] [] 0.2 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | readable, _, _ ->
                List.iter
                  (fun r ->
                    if r == listener then (
                      match Unix.accept listener with
                      | exception Unix.Unix_error (_, _, _) -> ()
                      | fd, _ ->
                          Atomic.incr conns.cn_accepted;
                          Telemetry.observe conns.h_active
                            (Atomic.fetch_and_add conns.cn_active 1);
                          Mutex.lock hm;
                          let id = !next_id in
                          incr next_id;
                          let th = Thread.create (handler id fd) () in
                          Hashtbl.add handlers id (fd, th);
                          Mutex.unlock hm)
                    else
                      (* Metrics socket: answer inline — a dump is one
                         cheap write, not worth a thread. *)
                      match Unix.accept r with
                      | exception Unix.Unix_error (_, _, _) -> ()
                      | fd, _ ->
                          let text = Scheduler.metrics_text sched in
                          (try
                             ignore
                               (Unix.write_substring fd text 0
                                  (String.length text))
                           with Unix.Unix_error _ -> ());
                          (try Unix.close fd with Unix.Unix_error _ -> ()))
                  readable;
                Telemetry.publish conns.tel conns
          done;
          (* Shutdown: stop accepting, let queued jobs drain (unblocking
             every handler thread waiting in [result wait]), then EOF
             lingering connections and join the handlers. *)
          Unix.close listener;
          (try Sys.remove socket with Sys_error _ -> ());
          (match (metrics_listener, metrics_socket) with
          | Some fd, Some path ->
              Unix.close fd;
              (try Sys.remove path with Sys_error _ -> ())
          | _ -> ());
          Scheduler.shutdown sched;
          let lingering =
            Mutex.lock hm;
            let l = Hashtbl.fold (fun _ v acc -> v :: acc) handlers [] in
            Mutex.unlock hm;
            l
          in
          List.iter
            (fun (fd, _) ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            lingering;
          List.iter (fun (_, th) -> Thread.join th) lingering;
          Telemetry.publish conns.tel conns;
          Ok ())
