(** Fibonacci linear feedback shift register, the hardware pseudo-random
    source behind branch-on-random (paper Section 3.3, Figure 6).

    The register shifts right each update; every bit moves one position
    toward the LSB and the MSB receives the XOR of the tap bits, exactly
    as drawn in Figure 6. A register of width [w] with maximal taps
    cycles through all [2{^w} - 1] non-zero values. *)

type t

val create : ?seed:int -> Taps.t -> t
(** [create ?seed taps] starts the register at [seed] (default [1]).
    [seed] is reduced to the register width and must be non-zero after
    reduction — the all-zeros state is the LFSR's single fixed point. *)

val width : t -> int

val peek : t -> int
(** Current register value, LSB = flip-flop 0 in Figure 6's drawing. *)

val step : t -> int
(** Clock the register once and return the {e new} value. *)

val set_state : t -> int -> unit
(** Software write of the register (Section 3.4's OS save/restore path).
    Raises [Invalid_argument] if the value is zero or too wide. *)

val updates : t -> int
(** Number of [step]s performed since creation, used by the
    deterministic-implementation experiments. *)

val shift_back : t -> recovered_msb:bool -> unit
(** Undo one [step] given the bit that was shifted off the LSB end
    (Section 3.4's checkpoint recovery: "allocating additional storage
    for the bits that would have shifted off the end ... and shifting
    back"). *)

val shifted_out_bit : t -> int -> bool
(** [shifted_out_bit t before] is the bit that a [step] from state
    [before] discards, i.e. the value the deterministic implementation
    must bank to allow {!shift_back}. *)
