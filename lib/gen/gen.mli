(** Random terminating BRISC program generator and structure-aware
    mutator — the genome layer shared by the QCheck differential
    property ([test/gen_brisc.ml]) and the coverage-guided fuzzer
    ([bor fuzz]).

    Generated programs follow a fixed skeleton (a bounded counter loop
    whose body mixes ALU work, data-segment loads/stores, forward
    conditional branches, branch-on-randoms and calls into leaf
    functions) that provably terminates: control flow inside the body
    is strictly forward, calls only reach leaf functions, and the loop
    counter register is outside the generator's write pool. {!mutate}
    recovers that skeleton from an arbitrary program image and only
    applies edits that preserve it, so mutants of generated programs
    stay terminating; mutants of foreign programs (e.g. compiled minic)
    may loop forever or fault, which the differential harness
    classifies as a skipped budget case rather than a failure. *)

val counter : Bor_isa.Reg.t
(** The loop-counter register ([s7]), excluded from every write pool. *)

val gen_program : Bor_util.Prng.t -> Bor_isa.Program.t
(** A fresh random terminating program (pure function of the generator
    state). *)

val mutate : Bor_util.Prng.t -> Bor_isa.Program.t -> Bor_isa.Program.t
(** [mutate rng p] is a copy of [p] with 1–3 random edits: body slots
    replaced with fresh work or forward control flow, branch-on-random
    frequency fields retuned, the loop trip count changed, leaf-function
    bodies rewritten (returns are preserved), or data bytes flipped.
    Never touches the loop decrement, the backedge or the halt. Falls
    back to data-byte mutation when the program has no recoverable
    skeleton. [p] itself is not modified. *)

(** {1 Move-based mutation (superoptimizer)}

    Single-edit proposal moves for [Bor_opt]'s Metropolis–Hastings
    search. Each move produces at most one well-formed neighbour of the
    input program: generated-skeleton programs keep their terminating
    loop shape (slot 0 trip count, decrement, backedge and halt are
    protected, exactly as in {!mutate}); any other halting program is
    treated as a plain sequence whose pre-halt slots are all editable.
    Inserted/replacing control flow is strictly forward, and the loop
    {!counter} is never written. *)

type move =
  | Replace  (** overwrite one editable slot with a fresh instruction *)
  | Swap  (** exchange two editable slots, re-aiming illegal branches *)
  | Insert  (** splice in one plain instruction, branch targets kept *)
  | Delete  (** remove one editable slot, branch targets kept *)
  | Change_imm  (** retune an immediate/offset/frequency field in place *)

val all_moves : move array

val move_name : move -> string

type rates = {
  replace : int;
  swap : int;
  insert : int;
  delete : int;
  change_imm : int;
}
(** Relative move weights (arbitrary non-negative integers, summed). *)

val default_rates : rates

val pick_move : Bor_util.Prng.t -> rates -> move
(** Draw one move kind with probability proportional to its weight.
    Raises [Invalid_argument] if all weights are zero. *)

val max_text_len : int
(** Upper bound on text length for {!Insert} (512 instructions). *)

val apply_move :
  Bor_util.Prng.t -> move -> Bor_isa.Program.t -> Bor_isa.Program.t option
(** [apply_move rng m p] is one random neighbour of [p] under move [m],
    or [None] when the move does not apply (no halt instruction, region
    too small to swap/delete, text at {!max_text_len} for insert, no
    tweakable slot for change-immediate, or the drawn slot holds a
    region-of-interest [Marker] — measurement scaffolding that is never
    replaced, swapped or deleted). Insert/delete preserve every direct
    branch's target {e instruction} by offset fixup and shift the entry
    point, text symbols and call-site table accordingly. [p] itself is
    never modified. *)
