(** A linked program image: text, data, symbols and the instrumentation
    site table.

    The site table maps text addresses to site ids. Compilers record
    every {e instrumentation site} here so the functional simulator can
    collect a ground-truth full profile for accuracy comparisons without
    perturbing the simulated code. *)

type t = {
  text : Instr.t array;
  text_base : int;
  data : Bytes.t;
  data_base : int;
  entry : int;  (** address of the first instruction to execute *)
  symbols : (string * int) list;
  sites : (int * int) list;  (** (text address, site id) *)
}

val default_text_base : int
val default_data_base : int

val make :
  ?text_base:int ->
  ?data_base:int ->
  ?entry:int ->
  ?symbols:(string * int) list ->
  ?sites:(int * int) list ->
  ?data:Bytes.t ->
  Instr.t array ->
  t
(** [make text] defaults the entry point to the start of the text
    segment. *)

val instr_at : t -> int -> Instr.t option
(** Instruction at a byte address; [None] outside the text segment or
    misaligned. *)

val find_symbol : t -> string -> int option
val site_at : t -> int -> int option
val instr_count : t -> int
val pp_listing : Format.formatter -> t -> unit
(** Disassembly listing with addresses and symbol annotations. *)
