(** Control-flow-graph IR for minic: three-address instructions over
    virtual registers, with explicit block terminators.

    This is the representation the Arnold–Ryder instrumentation
    transforms rewrite (see {!Instrument}), so branch-on-random is a
    first-class terminator: {!term.Brr_branch} with an encoded frequency
    and a taken target, plus {!term.Jump_always} — the 100%-taken
    branch-on-random used to jump back from out-of-line instrumentation
    without touching the BTB (paper footnote 4). *)

type vreg = int

type operand = Vr of vreg | Imm of int

(** Address of a named object. *)
type sym =
  | Global of string  (** data-segment label *)
  | Frame of int  (** frame slot index (local arrays, spills) *)

type inst =
  | Bin of Bor_isa.Instr.alu_op * vreg * operand * operand
  | Set_cond of Bor_isa.Instr.cond * vreg * operand * operand
      (** materialise a comparison as 0/1 *)
  | Addr of vreg * sym  (** vreg := address of sym *)
  | Load of Bor_isa.Instr.width * vreg * operand * int
      (** vreg := mem[base + off] *)
  | Store of Bor_isa.Instr.width * operand * operand * int
      (** mem[base + off] := value *)
  | Load_global of Bor_isa.Instr.width * vreg * string * int
      (** vreg := mem[sym + off], gp-relative small-data access — a
          single instruction, matching the paper's
          [load rCount, (mCount)] cost model *)
  | Store_global of Bor_isa.Instr.width * operand * string * int
  | Call of string * operand list * vreg option
  | Marker of int

type label = int

type term =
  | Jump of label
  | Cond of Bor_isa.Instr.cond * operand * operand * label * label
      (** taken target, fall-through target *)
  | Brr_branch of Bor_core.Freq.t * label * label
      (** branch-on-random: taken target, fall-through *)
  | Jump_always of label  (** 100%-taken branch-on-random *)
  | Ret of operand option

type block = {
  label : label;
  mutable body : inst list;
  mutable term : term;
  mutable is_backedge : bool;
      (** this block's [Jump] closes a source-level loop — recorded at
          lowering time and used by Full-Duplication check placement *)
  mutable site : int option;
      (** ground-truth site id announced when this block executes *)
}

type func = {
  name : string;
  params : vreg list;
  entry : label;
  blocks : (label, block) Hashtbl.t;
  mutable block_order : label list;  (** layout order, entry first *)
  mutable next_vreg : int;
  mutable next_label : int;
  mutable frame_slots : int list;  (** slot sizes in bytes, slot i *)
}

val create_func : name:string -> nparams:int -> func
val fresh_vreg : func -> vreg
val fresh_block : func -> term -> block
(** Creates, registers and appends the block to the layout order. *)

val block : func -> label -> block
val append_inst : block -> inst -> unit

val move_after : func -> anchor:label -> label -> unit
(** [move_after f ~anchor l] repositions block [l] in the layout order
    to immediately follow [anchor]; controls fall-through chains and
    keeps hot paths straight-line. *)

val chain_layout : func -> unit
(** Trace-based block placement: starting from the entry, greedily chain
    each block's fall-through successor so the common path is
    straight-line and unconditional jumps can be elided by the code
    generator. Taken targets of conditional and branch-on-random
    terminators start their own chains, which keeps instrumentation
    payloads out of line (the Figure 8 arrangement). *)

val alloc_frame_slot : func -> bytes:int -> int
val successors : term -> label list
val map_term_labels : (label -> label) -> term -> term

val vregs_used : func -> int
(** Upper bound (next_vreg): number of virtual registers allocated. *)

val iter_blocks : func -> (block -> unit) -> unit
(** In layout order. *)

val to_dot : func -> string
(** Graphviz rendering of the CFG: instrumentation-site blocks are
    shaded, branch-on-random edges dashed, backedges bold. *)
