type t = {
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  mem_ports : int;
  rob_entries : int;
  fetch_queue : int;
  decode_depth : int;
  backend_redirect : int;
  ghist_bits : int;
  bimodal_entries : int;
  btb_entries : int;
  ras_entries : int;
  l1_size : int;
  l1_assoc : int;
  line_bytes : int;
  l2_size : int;
  l2_assoc : int;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
  alu_latency : int;
  mul_latency : int;
  deterministic_lfsr : bool;
  lfsr_seed : int;
  lfsr_ports : int;
  brr_resolve_in_backend : bool;
  brr_in_predictor : bool;
  warm_block_cache : bool;
}

let default =
  {
    fetch_width = 3;
    decode_width = 4;
    issue_width = 4;
    commit_width = 4;
    mem_ports = 2;
    rob_entries = 80;
    fetch_queue = 24;
    decode_depth = 4;
    backend_redirect = 3;
    ghist_bits = 16;
    bimodal_entries = 65536;
    btb_entries = 1024;
    ras_entries = 32;
    l1_size = 32 * 1024;
    l1_assoc = 4;
    line_bytes = 64;
    l2_size = 1024 * 1024;
    l2_assoc = 8;
    l1_latency = 2;
    l2_latency = 8;
    mem_latency = 140;
    alu_latency = 1;
    mul_latency = 3;
    deterministic_lfsr = false;
    lfsr_seed = 0xB5AD5;
    lfsr_ports = 4;
    brr_resolve_in_backend = false;
    brr_in_predictor = false;
    warm_block_cache = true;
  }
