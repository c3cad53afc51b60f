module Sha256 = Bor_telemetry.Sha256
module Config = Bor_uarch.Config
module Sampling_plan = Bor_uarch.Sampling_plan

type t = { k_hex : string; k_preimage : string }

(* Complete destructuring: a new Config field fails to compile here
   until it is added to the canonical rendering, so the cache key can
   never silently alias two configurations that differ in a field this
   function forgot. *)
let canon_config (c : Config.t) =
  let {
    Config.fetch_width;
    decode_width;
    issue_width;
    commit_width;
    mem_ports;
    rob_entries;
    fetch_queue;
    decode_depth;
    backend_redirect;
    ghist_bits;
    bimodal_entries;
    btb_entries;
    ras_entries;
    l1_size;
    l1_assoc;
    line_bytes;
    l2_size;
    l2_assoc;
    l1_latency;
    l2_latency;
    mem_latency;
    alu_latency;
    mul_latency;
    deterministic_lfsr;
    lfsr_seed;
    lfsr_ports;
    brr_resolve_in_backend;
    brr_in_predictor;
    warm_block_cache;
  } =
    c
  in
  let i name v = Printf.sprintf "%s=%d" name v in
  let b name v = Printf.sprintf "%s=%b" name v in
  String.concat " "
    [
      i "fetch_width" fetch_width;
      i "decode_width" decode_width;
      i "issue_width" issue_width;
      i "commit_width" commit_width;
      i "mem_ports" mem_ports;
      i "rob_entries" rob_entries;
      i "fetch_queue" fetch_queue;
      i "decode_depth" decode_depth;
      i "backend_redirect" backend_redirect;
      i "ghist_bits" ghist_bits;
      i "bimodal_entries" bimodal_entries;
      i "btb_entries" btb_entries;
      i "ras_entries" ras_entries;
      i "l1_size" l1_size;
      i "l1_assoc" l1_assoc;
      i "line_bytes" line_bytes;
      i "l2_size" l2_size;
      i "l2_assoc" l2_assoc;
      i "l1_latency" l1_latency;
      i "l2_latency" l2_latency;
      i "mem_latency" mem_latency;
      i "alu_latency" alu_latency;
      i "mul_latency" mul_latency;
      b "deterministic_lfsr" deterministic_lfsr;
      i "lfsr_seed" lfsr_seed;
      i "lfsr_ports" lfsr_ports;
      b "brr_resolve_in_backend" brr_resolve_in_backend;
      b "brr_in_predictor" brr_in_predictor;
      (* Retired config field; the preimage is frozen, so the token
         stays at the old default. *)
      "retired_brr_cap=200000";
      b "warm_block_cache" warm_block_cache;
      (* Retired config field; the preimage is frozen, so the token stays. *)
      "sample=-";
    ]

let make ~program ?(config = Config.default) ?plan ~kind () =
  if kind = "" || String.contains kind '\n' then
    invalid_arg "Bor_store.Key.make: kind must be a non-empty single line";
  let k_preimage =
    String.concat "\n"
      ([
         "bor-key-v1";
         "kind=" ^ kind;
         "program=" ^ Sha256.digest (Bor_isa.Objfile.save program);
         "config=" ^ canon_config config;
       ]
      @ Sampling_plan.key_lines plan
      @ [ "" ])
  in
  { k_hex = Sha256.digest k_preimage; k_preimage }

let shard ~program_digest ?(config = Config.default) ~plan ~boundary () =
  if boundary < 0 then
    invalid_arg "Bor_store.Key.shard: boundary must be non-negative";
  (* A separate preimage family ("bor-shard-v1", not "bor-key-v1"):
     shard addresses can never collide with result/checkpoint keys, and
     adding them changes no existing hex. The whole plan joins the
     preimage — not just the period — because [Sampling_plan.phase_stream]
     draws each boundary's offset in [0, slack+1) where slack depends on
     warmup and window too, so two plans agreeing on (period, seed) can
     still place boundary [i] at different instruction counts. Jobs
     differing only in the plan's knobs or max_cycles DO share shards:
     none of those move the sweep's capture points. *)
  let k_preimage =
    String.concat "\n"
      [
        "bor-shard-v1";
        "kind=shard";
        "program=" ^ program_digest;
        "config=" ^ canon_config config;
        "plan=" ^ Sampling_plan.to_string plan;
        Printf.sprintf "boundary=%d" boundary;
        "";
      ]
  in
  { k_hex = Sha256.digest k_preimage; k_preimage }

let hex k = k.k_hex
let preimage k = k.k_preimage
