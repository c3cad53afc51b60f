module Json = Bor_telemetry.Json

let request ~socket req =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("client: socket: " ^ Unix.error_message e)
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Unix.connect fd (Unix.ADDR_UNIX socket);
            Wire.write_json fd req;
            Wire.read_json fd
          with
          | Some resp -> Ok resp
          | None -> Error "client: server closed the connection without replying"
          | exception Unix.Unix_error (e, _, _) ->
              Error
                (Printf.sprintf "client: cannot reach %s: %s" socket
                   (Unix.error_message e))
          | exception Wire.Protocol_error m -> Error ("client: " ^ m)))

let submit_request ?plan ?rank_bands ?ci_target ~backend program =
  Json.Obj
    ([
       ("op", Json.String "submit");
       ("program", Json.String (Wire.to_hex (Bor_isa.Objfile.save program)));
       ("backend", Json.String backend);
     ]
    @ (match plan with None -> [] | Some p -> [ ("plan", Json.String p) ])
    @ (match rank_bands with
      | None -> []
      | Some k -> [ ("rank_bands", Json.Int k) ])
    @
    match ci_target with
    | None -> []
    | Some pct ->
      (* Seventeen significant digits read back as [pct] itself, so the
         server validates the target the caller gave, never a rounded
         neighbour. *)
      [ ("ci_target", Json.String (Printf.sprintf "%.17g" pct)) ])

let status_request key =
  Json.Obj [ ("op", Json.String "status"); ("key", Json.String key) ]

let result_request ?(wait = false) key =
  Json.Obj
    [
      ("op", Json.String "result");
      ("key", Json.String key);
      ("wait", Json.Bool wait);
    ]

let stats_request = Json.Obj [ ("op", Json.String "stats") ]
let shutdown_request = Json.Obj [ ("op", Json.String "shutdown") ]
