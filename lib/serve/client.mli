(** Thin client side of the serve protocol: one connection per
    request, plus builders for the request objects — all [bor submit]
    and the tests need. *)

val request :
  socket:string ->
  Bor_telemetry.Json.t ->
  (Bor_telemetry.Json.t, string) result
(** Connect to the server socket, send one request frame, read one
    response frame, close. Connection and protocol failures come back
    as [Error]; never raises. *)

val submit_request :
  ?plan:string ->
  ?rank_bands:int ->
  ?ci_target:float ->
  backend:string ->
  Bor_isa.Program.t ->
  Bor_telemetry.Json.t
(** The program travels as the hex of its {!Bor_isa.Objfile} image —
    the same bytes the cache key digests. [rank_bands]/[ci_target]
    (sampled jobs only) travel only when given, so old servers keep
    accepting requests that don't use them; [ci_target] is framed as a
    decimal string that reads back exactly. Nothing is validated here:
    the server refuses what {!Bor_uarch.Sampling_plan.with_selection}
    refuses. *)

val status_request : string -> Bor_telemetry.Json.t
val result_request : ?wait:bool -> string -> Bor_telemetry.Json.t
val stats_request : Bor_telemetry.Json.t
val shutdown_request : Bor_telemetry.Json.t
