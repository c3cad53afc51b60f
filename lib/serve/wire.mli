(** Length-prefixed JSON framing over a byte stream — the [bor serve]
    wire format (docs/SERVE.md).

    A frame is an 8-byte little-endian payload length followed by that
    many bytes of {!Bor_telemetry.Json} text. The framing is symmetric:
    requests and responses use the same encoding, and a peer closing
    the stream between frames is a clean end of conversation
    ([read_frame] returns [None]), while closing mid-frame is a
    protocol error. *)

exception Protocol_error of string
(** Raised on malformed traffic: oversized or negative lengths, EOF
    mid-frame, or a frame that is not parseable JSON. I/O failures
    keep their native [Unix.Unix_error]. *)

val write_frame : Unix.file_descr -> string -> unit
val read_frame : Unix.file_descr -> string option
(** [None] on clean EOF at a frame boundary. *)

val write_json : Unix.file_descr -> Bor_telemetry.Json.t -> unit
val read_json : Unix.file_descr -> Bor_telemetry.Json.t option
(** {!write_frame}/{!read_frame} composed with the deterministic JSON
    codec. *)

val to_hex : string -> string
(** Lowercase hex of arbitrary bytes — how binary payloads (program
    images) travel inside the JSON dialect, which is text-only. *)

val of_hex : string -> (string, string) result
