module Prng = Bor_util.Prng
module Program = Bor_isa.Program
module Reg = Bor_isa.Reg
module Machine = Bor_sim.Machine
module Memory = Bor_sim.Memory
module Backend = Bor_exec.Backend

type oracle = Detailed | Sampled of Bor_uarch.Sampling_plan.t

(* One test input: register overrides (index above gp only — zero, ra,
   sp and gp keep their loader values so stacks and data addressing
   stay sane) plus a full data-segment image. Vector 0 is the clean
   state: no overrides, the program's own data segment. *)
type vector = { v_regs : (int * int) list; v_data : Bytes.t option }

(* Complete architectural result of one halted run. *)
type snapshot = { s_regs : int array; s_data : Bytes.t }

type t = {
  c_vectors : vector array;
  c_expected : snapshot array;
  c_cycles : int;
  c_len : int;
  c_data_len : int;
  c_max_steps : int;
  c_max_cycles : int;
  c_oracle : oracle;
}

let unit_cap = 64
let infinite_cost = max_int / 2

let make_vectors ~count ~seed ~data_len =
  let rng = Prng.create ~seed in
  Array.init count (fun i ->
      if i = 0 then { v_regs = []; v_data = None }
      else begin
        let regs =
          List.init
            (Reg.count - (Reg.to_int Reg.gp + 1))
            (fun k ->
              let r = Reg.to_int Reg.gp + 1 + k in
              (* Mix small values (shift amounts, masks, loop bounds)
                 with full-width ones. *)
              let v =
                if Prng.int rng 4 = 0 then Prng.int rng 16
                else Prng.next rng land 0xffffffff
              in
              (r, v))
        in
        let data = Bytes.init data_len (fun _ -> Char.chr (Prng.int rng 256)) in
        { v_regs = regs; v_data = Some data }
      end)

(* Filter and oracle runs borrow their buffers from the scratch pool
   ([Bor_exec.Scratch]) rather than allocating them. A candidate of a
   few hundred instructions dirties a handful of pages and table
   entries, so scrubbing a used 8 MiB memory ([Machine.create ~mem]) or
   refilling a retired pipeline ([Backend.pooled]) is far cheaper than
   zero-filling new ones. The filter only needs a memory and takes a
   pooled pipeline's.

   Run [prog] from one vector on the functional simulator; [None] when
   it faults, trips the sanitizer or exhausts the step budget. *)
let run_vector ~max_steps ~data_len prog vec =
  Bor_exec.Scratch.with_memory prog @@ fun mem ->
  let m = Machine.create ~mem prog in
  List.iter (fun (r, v) -> Machine.set_reg m (Reg.of_int r) v) vec.v_regs;
  let base = prog.Program.data_base in
  Option.iter (Memory.load_segment mem ~base) vec.v_data;
  match Machine.run ~max_steps m with
  | exception Bor_check.Check.Violation _ -> None
  | Error _ -> None
  | Ok _ ->
    let regs = Array.copy (Machine.unsafe_regs m) in
    let data =
      Bytes.init data_len (fun i -> Char.chr (Memory.read_byte mem (base + i)))
    in
    Some { s_regs = regs; s_data = data }

(* State-difference units between a candidate run and the expected
   snapshot, capped so one thoroughly wrong vector cannot dwarf the
   whole mismatch scale. *)
let units expected got =
  let d = ref 0 in
  Array.iteri
    (fun i v -> if got.s_regs.(i) <> v then incr d)
    expected.s_regs;
  let n = Bytes.length expected.s_data in
  let i = ref 0 in
  while !d < unit_cap && !i < n do
    if Bytes.get got.s_data !i <> Bytes.get expected.s_data !i then incr d;
    incr i
  done;
  min !d unit_cap

(* The pipeline's [cycles] stat is gated by region-of-interest markers
   ([Marker 1] resets it, [Marker 2] freezes it). A superoptimizer
   paid in ROI cycles would learn to shrink the *measured region*
   instead of the program — reorder the markers, or hoist work in
   front of the ROI one equivalence-preserving move at a time — so the
   oracle neutralizes markers to [Nop] (their architectural effect)
   and always charges whole-program cycles. *)
let defuse_markers prog =
  if
    Array.exists
      (function Bor_isa.Instr.Marker _ -> true | _ -> false)
      prog.Program.text
  then
    {
      prog with
      Program.text =
        Array.map
          (function Bor_isa.Instr.Marker _ -> Bor_isa.Instr.Nop | i -> i)
          prog.Program.text;
    }
  else prog

let oracle_cycles ~max_cycles o prog =
  let prog = defuse_markers prog in
  Backend.pooled
    (fun reuse ->
      match o with
      | Detailed -> Backend.detailed ?reuse ~max_cycles prog
      | Sampled plan -> Backend.sampled ?reuse ~plan ~max_cycles prog)
  @@ fun b ->
  match b.Backend.run () with
  | Ok (Backend.Detailed st) -> Some st.Bor_uarch.Pipeline.cycles
  | Ok (Backend.Sampled st) ->
    Some (int_of_float (Float.round st.Bor_exec.Sampled.sp_cycles_estimate))
  | Ok _ | Error _ -> None

let create ?(vectors = 4) ?(vector_seed = 7) ?(max_steps = 200_000)
    ?(max_cycles = 2_000_000) ?(oracle = Detailed) target =
  let vectors = max 1 vectors in
  let data_len = Bytes.length target.Program.data in
  let vecs = make_vectors ~count:vectors ~seed:vector_seed ~data_len in
  let expected =
    Array.map (run_vector ~max_steps ~data_len target) vecs
  in
  let missing = ref (-1) in
  Array.iteri
    (fun i s -> if s = None && !missing < 0 then missing := i)
    expected;
  if !missing >= 0 then
    Error
      (Printf.sprintf
         "target does not halt cleanly on test vector %d (budget %d steps)"
         !missing max_steps)
  else
    match oracle_cycles ~max_cycles oracle target with
    | None -> Error "target failed under the cost oracle"
    | Some cycles ->
      Ok
        {
          c_vectors = vecs;
          c_expected = Array.map Option.get expected;
          c_cycles = cycles;
          c_len = Array.length target.Program.text;
          c_data_len = data_len;
          c_max_steps = max_steps;
          c_max_cycles = max_cycles;
          c_oracle = oracle;
        }

let target_cycles t = t.c_cycles
let vector_count t = Array.length t.c_vectors

type eval = {
  ev_mismatches : int;
  ev_cycles : int;
  ev_cost : int;
  ev_oracle : bool;
}

let evaluate t prog =
  let mism = ref 0 in
  Array.iteri
    (fun i vec ->
      match
        run_vector ~max_steps:t.c_max_steps ~data_len:t.c_data_len prog vec
      with
      | None -> mism := !mism + unit_cap
      | Some got -> mism := !mism + units t.c_expected.(i) got)
    t.c_vectors;
  let len = Array.length prog.Program.text in
  if !mism = 0 then
    match oracle_cycles ~max_cycles:t.c_max_cycles t.c_oracle prog with
    | Some cycles ->
      { ev_mismatches = 0; ev_cycles = cycles; ev_cost = cycles;
        ev_oracle = true }
    | None ->
      (* Halts functionally but blows the oracle budget (the pipeline's
         branch-on-random stream found a divergent path): never accept. *)
      { ev_mismatches = 0; ev_cycles = infinite_cost;
        ev_cost = infinite_cost; ev_oracle = true }
  else begin
    let proxy = max 0 (t.c_cycles + (4 * (len - t.c_len))) in
    { ev_mismatches = !mism; ev_cycles = proxy;
      ev_cost = (!mism * 1000) + proxy; ev_oracle = false }
  end

let accept rng ~temperature ~current ~proposed =
  if proposed <= current then true
  else if temperature <= 0. then false
  else
    Prng.float rng
    < exp (-.float_of_int (proposed - current) /. temperature)
