(** The [bor serve] Unix-domain-socket front end: a select-multiplexed
    accept loop handing each connection to its own thread.

    Protocol (each request one JSON object; full spec in
    docs/SERVE.md):

    - [submit]: program image as hex + backend kind + optional plan,
      [rank_bands] and [ci_target] → key + disposition
      ([queued]/[joined]/[hit]); a malformed field is refused here
      ({!parse_spec}).
    - [status]: key → job state, plus a [serve.*] counter snapshot in
      every reply (the polling form of per-job telemetry streaming;
      the completed job's full registry snapshot is embedded in its
      payload).
    - [result]: key (+ [wait: true] to block) → the payload text,
      byte-identical on every path.
    - [stats]: the scheduler/store counter snapshot.
    - [shutdown]: acknowledge, drain the queue, stop serving.

    Connections are served concurrently — each accepted client gets a
    handler thread, so any number of clients can stream [status] polls
    or block in [result wait] while sampled windows run on the worker
    domains. A connection that talks garbage is dropped (counted in
    [serve.conns.protocol_errors]); the server keeps serving. The
    [serve.conns.*] telemetry family (accepted, protocol_errors, an
    active-connections histogram) is maintained by the accept thread.

    The optional metrics socket answers every connection with one
    plaintext {!Scheduler.metrics_text} dump and closes — no framing,
    scrapable with [nc -U]. *)

val parse_spec : Bor_telemetry.Json.t -> (Job.spec, string) result
(** Decode a [submit] request. A present field of the wrong type, or a
    spec {!Bor_uarch.Sampling_plan.with_selection} or
    {!Bor_exec.Backend.Kind.of_name} refuses, is an [Error] naming it,
    before any key is minted. *)

val run :
  socket:string ->
  ?metrics_socket:string ->
  ?on_ready:(unit -> unit) ->
  Scheduler.t ->
  (unit, string) result
(** Bind (replacing any stale socket file at [socket], and at
    [metrics_socket] when given), call [on_ready], and serve until a
    [shutdown] request. On the way out: stop accepting, drain the
    scheduler (queued jobs still run, blocked [result wait]s get their
    answers), unblock and join every handler thread, remove the socket
    files. [Error] only for setup failures (unbindable path). Ignores
    SIGPIPE for the whole process, so a reply to a client that has gone
    fails as [EPIPE] and costs only that connection. *)
