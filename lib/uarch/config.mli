(** Timing-simulator configuration. {!default} is the paper's machine
    (Section 5.1): a 4-wide out-of-order core with an 80-entry ROB,
    fetch of up to 3 instructions per cycle stopping at a predicted
    taken branch, a tournament predictor (16-bit gshare + 64k-entry
    bimodal), 32-entry RAS, 1024-entry BTB, a minimum back-end
    misprediction penalty of 11 cycles, 32KB 4-way L1s, a 1MB 8-way L2
    at 8 cycles and 140-cycle memory. Branch-on-random resolves in
    decode, the 5th pipeline stage. *)

type t = {
  fetch_width : int;  (** 3 *)
  decode_width : int;  (** 4 *)
  issue_width : int;  (** 4 *)
  commit_width : int;  (** 4 *)
  mem_ports : int;  (** load/store issues per cycle *)
  rob_entries : int;  (** 80 *)
  fetch_queue : int;  (** front-end buffering capacity *)
  decode_depth : int;
      (** stages between fetch and decode; decode is stage
          [decode_depth + 1] = 5 *)
  backend_redirect : int;
      (** extra cycles from resolve to refetch, tuned so the minimum
          back-end penalty is 11 *)
  ghist_bits : int;  (** 16 *)
  bimodal_entries : int;  (** 64k; a power of two *)
  btb_entries : int;  (** 1024; a power of two *)
  ras_entries : int;  (** 32; a power of two *)
  l1_size : int;
  l1_assoc : int;
  line_bytes : int;
      (** 64; a power of two, shared by every cache level. The
          predictor, RAS, BTB and caches index their tables by mask,
          so {!Pipeline.create} rejects any table size that is not a
          power of two. *)
  l2_size : int;
  l2_assoc : int;
  l1_latency : int;  (** load-to-use on a hit *)
  l2_latency : int;  (** 8 *)
  mem_latency : int;  (** 140 *)
  alu_latency : int;
  mul_latency : int;
  deterministic_lfsr : bool;
      (** §3.4: checkpoint the LFSR so squashed branch-on-random decodes
          are rolled back *)
  lfsr_seed : int;
  lfsr_ports : int;
      (** branch-on-randoms decodable per cycle. [decode_width] models
          the paper's replicated per-decoder LFSRs; a smaller value
          models footnote 3's shared LFSR with a priority encoder — the
          decode packet splits when more branch-on-randoms arrive in
          one cycle than there are ports. *)
  (* Ablations of the paper's §3.3 design decisions: *)
  brr_resolve_in_backend : bool;
      (** ablation: resolve branch-on-random at execute like an ordinary
          conditional branch (full back-end flush per take) instead of
          in decode — quantifies the value of early resolution *)
  brr_in_predictor : bool;
      (** ablation: let branch-on-random use the direction predictor,
          global history and BTB like a conditional branch — quantifies
          the §3.3 point-6 pollution the paper avoids by keeping it
          out *)
  warm_block_cache : bool;
      (** use the block translation cache ({!Block}) in
          {!Block.run_warming} ([true] by default). The cache is a
          pure throughput device — warmed state is bit-identical either
          way (the warming-equivalence tests enforce it); [false]
          forces the single-step reference path, for those tests and
          for debugging. Full-detail runs never consult it. *)
}

val default : t
