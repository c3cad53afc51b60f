(** The branch-on-random decision datapath: an LFSR plus the Figure 7
    AND-tree/mux, evaluated in the decode stage.

    [decide] mirrors the hardware exactly: the AND-gate outputs are
    functions of the {e current} register value, the frequency field
    drives the mux, and the LFSR is clocked only on cycles in which a
    branch-on-random is decoded. *)

type t

val create :
  ?width:int ->
  ?taps:Bor_lfsr.Taps.t ->
  ?select:Bor_lfsr.Bit_select.t ->
  ?seed:int ->
  unit ->
  t
(** Defaults follow the paper's recommended design point: a 20-bit
    maximal LFSR ([width = 20]) with spaced bit selection. The default
    seed is a dense bit pattern — from sparse states the first few
    thousand outcomes are visibly biased (the spec only promises
    asymptotic convergence). Seeds are reduced to the register width;
    a zero reduction falls back to the default. When [taps] is given it
    overrides [width]. *)

val decide : t -> Freq.t -> bool
(** [decide t f] evaluates one branch-on-random: reads the take signal
    for [f], then clocks the register. Returns [true] when the branch is
    taken. *)

val decide_recorded : t -> Freq.t -> bool * bool
(** Like {!decide} but also returns the bit shifted out of the register,
    which a deterministic implementation banks so the update can be
    undone on a squash (Section 3.4). *)

val undo : t -> shifted_out:bool -> unit
(** Roll back one [decide], restoring the pre-update register state. *)

val would_take : t -> Freq.t -> bool
(** The mux output for the current state {e without} clocking — the
    combinational read, exposed for tests. *)

val lfsr : t -> Bor_lfsr.Lfsr.t
(** The underlying register (software-visible in the Section 3.4
    deterministic variant: context switch save/restore, seeding, or use
    as a fast user-level PRNG). *)
