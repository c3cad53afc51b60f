(** Hardware cost model for branch-on-random implementations, backing
    the paper's Section 3.3 estimates: roughly 20 bits of state and
    fewer than 100 gates for a single-issue machine, under 100 bits and
    400 gates for a 4-wide superscalar.

    Gate counts are in 2-input-gate equivalents. The model itemises the
    Figure 7 datapath: the LFSR flip-flops and XOR feedback, the cascade
    of 15 AND gates (one of each size from 2 to 16 inputs, shared so
    each adds a single 2-input gate), the 16-way output mux, and the
    control overheads the paper's summary lists (decoder extension, BTB
    suppression, LFSR clock gating). *)

type sharing =
  | Replicated  (** one LFSR per decoder, fully decoupled (paper §3.3) *)
  | Shared
      (** a single LFSR with a program-order priority encoder arbitrating
          among decoders (paper footnote 3) *)

type config = {
  lfsr_width : int;  (** register bits; the paper suggests 20 *)
  decode_width : int;  (** decoders supporting branch-on-random *)
  sharing : sharing;
  deterministic : bool;
      (** include §3.4 checkpoint storage: shifted-out-bit bank plus an
          in-flight counter *)
  max_inflight : int;
      (** speculative branch-on-randoms in flight; sizes the §3.4 bank *)
}

val single_issue : config
(** 20-bit LFSR, 1-wide, replicated (trivially), non-deterministic. *)

val four_wide : config
(** The aggressive-superscalar data point: 4 decoders, replicated
    LFSRs. *)

type breakdown = {
  state_bits : int;
  gates_lfsr_feedback : int;
  gates_and_tree : int;
  gates_mux : int;
  gates_arbitration : int;
  gates_control : int;
  gates_total : int;
}

val estimate : config -> breakdown
val state_bits : config -> int
val gates : config -> int

val meets_paper_claims : unit -> bool
(** True when the model reproduces both headline claims: single-issue
    within 20 bits / 100 gates and 4-wide within 100 bits / 400
    gates. *)
