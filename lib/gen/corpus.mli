(** Crash-corpus persistence: render a program image back to assembly
    the repo's own assembler accepts, write reproducers to a corpus
    directory, and load them again for replay.

    The emitted text is a faithful disassembly — every direct-branch
    target becomes an [L<index>] label, the entry point is labelled
    [main], branch-on-random frequencies use the exact [#field] raw
    form, site-table entries become [site] directives and the data
    segment is dumped byte-for-byte — so reassembling reproduces the
    original instruction array and data image exactly (given the
    default text/data bases). The header comments carry the generation
    seed and failure note, making each corpus file self-describing. *)

val to_asm :
  ?tool:string -> ?seed:int -> ?note:string -> Bor_isa.Program.t -> string
(** Render [p] as assembly source; [tool] names the producer in the
    header comment (default ["bor fuzz"]).
    @raise Invalid_argument when a direct branch targets outside
    [[0, instruction count]] — such an image cannot be expressed with
    labels (and cannot execute the branch without faulting either). *)

val mkdirs : string -> unit
(** [mkdir -p]: create a directory and its missing parents; a directory
    that cannot be made is left for the first write into it to report. *)

val write :
  dir:string -> name:string -> ?tool:string -> ?seed:int -> ?note:string ->
  Bor_isa.Program.t -> string
(** [write ~dir ~name p] saves [to_asm p] as [dir/name.s] (creating
    [dir] if needed) and returns the path.
    @raise Sys_error when the file cannot be written, a full disk
    included. *)

val load_file : string -> (Bor_isa.Program.t, string) result
(** Assemble one corpus file back into a program
    ({!Bor_isa.Toolchain.load_program_file}). *)

val files : dir:string -> string list
(** The [.s] files in [dir], sorted, as full paths; [] when the
    directory does not exist. *)
