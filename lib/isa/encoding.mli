(** Binary instruction encoding: 32-bit words, opcode in the top 6 bits.

    [Brr] uses the paper's Figure 5 layout — opcode, a 4-bit frequency
    field, then the branch target offset (22 bits here) — making it the
    same shape as the other direct branches.

    {!illegal_brr_word} provides the Section 3.4/4.1 software-emulation
    encoding: branch-on-random emitted as an {e invalid opcode} carrying
    the frequency, followed by a raw offset word, so an unmodified
    machine traps (SIGILL) and a handler can emulate the instruction. *)

val encode : Instr.t -> (int, string) result
(** Fails when an immediate or offset does not fit its field. *)

val encode_exn : Instr.t -> int

val decode : int -> (Instr.t, string) result
(** Exact inverse of {!encode} on its image. *)

(** {2 Invalid-opcode emulation form} *)

val illegal_brr_word : Bor_core.Freq.t -> offset:int -> (int, string) result
(** The trap-causing word, carrying the frequency and an 18-bit word
    offset. (The paper stores the offset in a following 4-byte slot; we
    fold it into one word so native and trap-emulated images have
    identical code layout — noted in DESIGN.md.) *)

val decode_illegal_brr : int -> (Bor_core.Freq.t * int) option
(** Recognise a word produced by {!illegal_brr_word}, returning the
    frequency and word offset. *)
