(** Functional (architectural) simulator for BRISC.

    Executes one instruction per [step] with no timing model, collecting
    architectural statistics and ground-truth site counts. This is the
    reproduction's analogue of the paper's "golden" functional model:
    the timing simulator ({!Bor_uarch}) checks its committed state
    against a machine of this type.

    Branch-on-random behaviour is pluggable ({!brr_mode}):
    - [Hardware]: the native instruction backed by an LFSR engine;
    - [Trap_emulated]: the Section 3.4/4.1 scheme — the program image is
      encoded with invalid opcodes, every branch-on-random raises an
      illegal-instruction trap, and a registered handler emulates the
      LFSR in software and redirects the PC;
    - [Fixed_interval]: the "hardware counter" of Section 4.1 — the
      branch is taken deterministically every [2^(field+1)]-th visit. *)

type brr_mode =
  | Hardware of Bor_core.Engine.t
  | Trap_emulated of Bor_core.Engine.t
  | Fixed_interval
  | External of (Bor_core.Freq.t -> bool)
      (** outcomes dictated by a leading (timing) simulator — the
          paper's timing-first arrangement, where the timing model
          "communicat\[es\] its computed outcome to Simics so that both
          simulators compute the same outcome" (§5.1) *)

type stats = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable cond_taken : int;
  mutable brr_executed : int;
  mutable brr_taken : int;
  mutable markers : int;
  mutable traps : int;  (** illegal-instruction traps taken *)
}

type t

val default_mem_size : int
(** Memory size {!create} allocates when given neither [mem_size] nor
    [mem]: 8 MiB. *)

val check_data : Bor_isa.Program.t -> (unit, string) result
(** [Ok ()] when the program's data segment fits a default-size memory;
    otherwise the fault {!create} would raise loading it. Lets a caller
    refuse such an image before it keys or queues anything. *)

val create :
  ?mem_size:int -> ?mem:Memory.t -> ?brr_mode:brr_mode -> Bor_isa.Program.t -> t
(** [create program] loads the image: registers cleared, [sp] at the top
    of memory, [gp] at the data base, PC at the entry point. Default
    memory is 8 MiB; default [brr_mode] is [Hardware] with a fresh
    default engine.

    With [~mem], the machine runs on that memory instead of allocating
    one: it is {!Memory.clear}ed first, so the machine behaves exactly
    like a fresh one, and only the pages an earlier run dirtied are
    zeroed. The caller must not touch [mem] through any other machine
    while this one is in use.

    @raise Memory.Fault if the data segment does not fit
    ({!check_data}).
    @raise Invalid_argument if [mem_size] is given and differs from
    [Memory.size mem]. *)

val program : t -> Bor_isa.Program.t
val pc : t -> int
val reg : t -> Bor_isa.Reg.t -> int
val set_reg : t -> Bor_isa.Reg.t -> int -> unit
val memory : t -> Memory.t
val stats : t -> stats
val halted : t -> bool

val set_pc : t -> int -> unit
(** Overwrite the pc without executing anything. For the block-compiled
    warmer ({!Bor_uarch.Block}), which elides per-instruction pc
    maintenance inside a specialized block and resynchronizes the
    machine before any executor that reads [pc t]. *)

val unsafe_regs : t -> int array
(** The live register file itself (index = {!Bor_isa.Reg.to_int}), not
    a copy — the identity is stable for the machine's lifetime, even
    across {!import_arch}. For the block-compiled warmer's specialized
    closures only: writers must preserve the {!set_reg} invariants
    ([x0] stays zero, values wrapped to signed 32 bits). *)

val has_site_hooks : t -> bool
(** Whether a site hook could fire on this machine (at least one hook
    registered and the program has instrumented sites). The
    block-compiled warmer falls back to single-stepping in that case,
    because fused blocks skip the per-instruction site lookup. *)

val code_generation : t -> int
(** Generation counter for the decoded text image: bumped by every
    {!patch_brr_freq}. Derived code caches (the warmer's block
    translation cache) compare it to discover self-modification and
    invalidate themselves. *)

type arch = { a_pc : int; a_regs : int array; a_halted : bool }
(** The architectural register state of a machine — everything outside
    {!Memory.t} that a checkpoint must carry. Statistics are
    deliberately excluded: a restored machine starts its counts at
    zero, exactly like a freshly created one. *)

val export_arch : t -> arch
(** Copy out the current register file, pc and halt flag. *)

val import_arch : t -> arch -> unit
(** Overwrite the register file, pc and halt flag (stats, mode and
    hooks untouched).
    @raise Invalid_argument on a register-file width mismatch. *)

val on_site : t -> (int -> unit) -> unit
(** Register a callback fired with the site id whenever the PC passes an
    address in the program's site table (ground-truth profiling; does
    not perturb execution). *)

val on_marker : t -> (int -> unit) -> unit
(** Callback fired with the marker id on every [marker]. *)

val patch_brr_freq : t -> pc:int -> Bor_core.Freq.t -> unit
(** JIT-style code patching: rewrite the frequency field of the
    branch-on-random at [pc] — the paper's §7 observation that "each
    branch-on-random instruction encodes its own frequency" makes
    convergent profiling a matter of patching a 4-bit immediate. Works
    in every mode (in [Trap_emulated] the invalid-opcode word is
    re-encoded).
    @raise Invalid_argument when [pc] does not hold a branch-on-random. *)

exception Fault of { pc : int; message : string }

val step : t -> unit
(** Execute one instruction. No-op once halted.
    @raise Fault on illegal instructions (without a matching trap
    handler), bad fetches, or memory faults. *)

val check : ?cycle:int -> t -> unit
(** Sanitizer pass over architectural state: [x0] is zero, every
    register fits in signed 32 bits, the pc is word-aligned unless
    halted, and the stats counters are mutually consistent
    ([cond_taken <= cond_branches], [brr_taken <= brr_executed],
    instruction-class counts bounded by [instructions]). Raises
    {!Bor_check.Check.Violation} (component ["machine"]).
    Unconditional — callers gate on [!Bor_check.Check.on]. *)

val run : ?max_steps:int -> t -> (int, string) result
(** Run to [halt] (or the step budget, default 1e9); returns the number
    of instructions executed, or a formatted fault. *)

val visit_site : t -> int -> unit
(** [visit_site t pc] fires the site hooks with [pc]'s site id when
    [pc] is in the program's site table — what {!step} does before
    each instruction. For the single-step warmer, which executes
    through the executors below instead of {!step}. *)

(** {2 Executors}

    The one body of each instruction kind: {!step} runs every
    instruction through {!exec_decoded}, which dispatches to the
    field-level executors; the sampled-simulation warmer, which has
    already fetched, bounds-checked and destructured the instruction,
    calls them directly. Each executes the instruction at the current
    pc, counted in {!stats}. The caller guarantees the instruction is
    the decoded one at [pc t] and the machine is not halted; site hooks
    are not consulted ({!visit_site}). Loads and stores raise {!Fault}
    on memory faults. *)

val exec_decoded : t -> Bor_isa.Instr.t -> unit
(** {!step} minus the halted check, the fetch bounds check and the
    site lookup. *)

val exec_brr_decided : t -> taken:bool -> offset:int -> unit
(** The branch-on-random with its outcome decided by the caller: the
    machine's own decide path ({!brr_mode}) is not consulted. The
    warmer drives its own LFSR engine. *)

val exec_branch : t -> Bor_isa.Instr.cond -> Bor_isa.Reg.t -> Bor_isa.Reg.t -> int -> bool
(** The conditional branch; returns whether it was taken. *)

val exec_load : t -> Bor_isa.Instr.width -> Bor_isa.Reg.t -> Bor_isa.Reg.t -> int -> int
(** [exec_load t w rd rs1 off]; returns the effective address
    (computed before [rd] is written). *)

val exec_store : t -> Bor_isa.Instr.width -> Bor_isa.Reg.t -> Bor_isa.Reg.t -> int -> int
(** [exec_store t w rsrc rbase off]; returns the effective address. *)

val exec_jal : t -> Bor_isa.Reg.t -> int -> unit
(** The jump-and-link. *)

val exec_jalr : t -> Bor_isa.Reg.t -> Bor_isa.Reg.t -> int -> int
(** The register-indirect jump; returns its target. *)
