(** Architectural registers of BRISC, the 32-register RISC target used
    throughout the reproduction.

    ABI convention (used by the minic compiler and the assembler's
    symbolic names):
    - [r0]/[zero]: hard-wired zero
    - [r1]/[ra]: return address
    - [r2]/[sp]: stack pointer
    - [r3]/[gp]: global pointer (base of the data segment)
    - [r4..r7]/[a0..a3]: arguments / return value in [a0]
    - [r8..r15]/[t0..t7]: caller-saved temporaries
    - [r16..r23]/[s0..s7]: callee-saved
    - [r24..r31]/[x24..x31]: additional temporaries (caller-saved) *)

type t = private int

val count : int
val of_int : int -> t
val to_int : t -> int
val zero : t
val ra : t
val sp : t
val gp : t
val a : int -> t (** [a i] for [i] in [0, 3] *)

val t_ : int -> t (** [t_ i] for [i] in [0, 7] *)

val s : int -> t (** [s i] for [i] in [0, 7] *)

val x : int -> t (** [x i] for [i] in [24, 31] *)

val name : t -> string
val of_name : string -> t option
(** Accepts both ABI names and raw [rN] spellings. *)

val caller_saved : t list
val callee_saved : t list
val equal : t -> t -> bool
val compare : t -> t -> int
