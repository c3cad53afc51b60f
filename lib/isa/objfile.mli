(** A simple binary object format for linked BRISC images, so programs
    can be assembled once and shipped to the simulators (magic
    ["BOR1"]). The text section stores the binary instruction encodings
    of {!Encoding}; symbols and the instrumentation site table travel
    with the image. *)

val save : Program.t -> string
(** Serialise to bytes.
    @raise Invalid_argument if an instruction cannot be encoded (the
    assembler already guarantees it can). *)

val load : string -> (Program.t, string) result
(** Parse an image produced by {!save}; checks the magic, bounds and
    instruction decodings. A table count that the bytes left cannot
    hold is refused before anything is allocated for it, and so is an
    instruction word that does not re-encode to itself: every [Ok]
    image re-saves to the same bytes. *)

val is_object_file : string -> bool
(** True when the string (or file contents) begins with the magic ["BOR1"]. *)
