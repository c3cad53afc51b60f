(** BRISC instructions.

    The interesting citizen is [Brr (f, off)] — branch-on-random — a
    direct branch that is taken with probability [(1/2)^(field f + 1)]
    rather than under a register condition (paper Figure 5). Like other
    direct branches its target is [pc + 4*off]. [Brr_always] is the
    100%-taken variant of the paper's footnote 4, used for the jump back
    from out-of-line instrumentation without disturbing the BTB.

    Branch/jump offsets are in {e instruction words relative to the
    instruction itself}; an offset of 1 is the fall-through successor. *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu
  | Mul

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type width = Byte | Word

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t  (** [op rd, rs1, rs2] *)
  | Alui of alu_op * Reg.t * Reg.t * int  (** [op rd, rs1, imm12] *)
  | Lui of Reg.t * int  (** [lui rd, imm20]: rd := imm << 12 *)
  | Load of width * Reg.t * Reg.t * int  (** [lw rd, off(rs1)] *)
  | Store of width * Reg.t * Reg.t * int  (** [sw rsrc, off(rbase)] *)
  | Branch of cond * Reg.t * Reg.t * int  (** [b<c> rs1, rs2, off] *)
  | Jal of Reg.t * int  (** [jal rd, off]: rd := pc+4; pc += 4*off *)
  | Jalr of Reg.t * Reg.t * int  (** [jalr rd, rs1, imm] *)
  | Brr of Bor_core.Freq.t * int  (** branch-on-random *)
  | Brr_always of int  (** 100%-taken branch-on-random *)
  | Rdlfsr of Reg.t  (** read the LFSR into [rd] (§3.4 extension) *)
  | Marker of int  (** magic marker for region-of-interest control *)
  | Halt
  | Nop

(** {2 Classification, shared by both simulators} *)

type control =
  | Not_control
  | Cond_branch  (** resolved in the back end *)
  | Front_end_branch  (** brr / brr_always / jal: resolved at decode *)
  | Indirect  (** jalr: needs a register, resolved in the back end *)

val control : t -> control

val dest : t -> Reg.t option
(** Destination register, if any ([zero] destinations are reported as
    [None]: writes to [zero] are discarded). *)

val sources : t -> Reg.t list
(** Register operands read (without [zero]). *)

val branch_offset : t -> int option
(** Static target offset (in words) for direct control flow. *)

val eval_cond : cond -> int -> int -> bool
(** [eval_cond c a b] with 32-bit signed [a], [b]; unsigned conditions
    reinterpret the operands. *)

val eval_alu : alu_op -> int -> int -> int
(** 32-bit wrapped ALU semantics; shifts use the low 5 bits of the
    second operand. *)

val pp : Format.formatter -> t -> unit
(** Assembly syntax, e.g. "brr 1/1024, 12". *)

val to_string : t -> string
