(* Block translation cache for functional warming (see block.mli and
   docs/WARMING.md).

   A block is compiled once from the decoded text and replayed many
   times. Correctness is an ordering argument: executing a block must
   perform the exact same sequence of mutating calls — Hierarchy.access
   on the I and D ports (the shared L2 makes their interleaving
   observable), Predictor.predict/update/recover, Btb.lookup_target/
   insert, Ras.push/pop_target, Engine.decide, and the oracle's
   executors — as single-stepping the same instructions through
   Pipeline.warm_step. Every compilation rule below exists to preserve
   that sequence; the speedup comes only from resolving dispatch,
   operands, icache line boundaries and pc bookkeeping at compile time.
   The rules both paths must apply identically — a conditional
   transfer's predictor/BTB step and a dcache probe — exist once, as
   [warm_branch] and [touch_data], and both paths call them. *)

module Machine = Bor_sim.Machine
module Instr = Bor_isa.Instr
module Reg = Bor_isa.Reg
module Bits = Bor_util.Bits

type warm = {
  lmask : int;
  mutable iline : int;
  mutable dline : int;
  mutable mispredicts : int;
}

let fresh_warm ~line_bytes =
  { lmask = lnot (line_bytes - 1); iline = -1; dline = -1; mispredicts = 0 }

let touch_data w hier addr =
  let dl = addr land w.lmask in
  if dl <> w.dline then begin
    w.dline <- dl;
    ignore (Hierarchy.access hier Hierarchy.D addr)
  end

(* Mirror full detail: history recovers only on a squash (stream
   mismatch — a predicted-taken BTB miss that falls through to the
   right place never squashes, leaving the speculative shift in place),
   and the tables train at commit. [Predictor.update] writes only the
   tables and [recover] only the history, so their order is free. *)
let warm_branch pred btb w ~pc ~taken ~target =
  let fall = pc + 4 in
  let pr = Predictor.predict pred ~pc in
  let stream_next =
    if Predictor.taken pr then begin
      let bt = Btb.lookup_target btb ~pc in
      if bt >= 0 then bt else fall
    end
    else fall
  in
  let actual_next = if taken then target else fall in
  if stream_next <> actual_next then begin
    w.mispredicts <- w.mispredicts + 1;
    Predictor.recover pred pr ~taken
  end;
  Predictor.update pred ~pc pr ~taken;
  if taken then Btb.insert btb ~pc ~target

type stats = {
  mutable compiled : int;
  mutable hits : int;
  mutable block_instructions : int;
  mutable invalidations : int;
  mutable fallback_steps : int;
}

(* The control transfer a block ends in, pre-destructured so executing
   it is field reads instead of a variant match over Instr.t. Direct
   targets are resolved at compile time. [T_fall] is a block cut short
   (marker/rdlfsr ahead, text ended, or the body-length cap): nothing
   is executed for it, the driver continues at [next]. *)
type term =
  | T_branch of {
      cond : Instr.cond;
      rs1 : Reg.t;
      rs2 : Reg.t;
      boff : int;
      target : int;
      fall : int;
    }
  | T_jal of { rd : Reg.t; joff : int; push : bool; link : int; target : int }
  | T_jalr of { rd : Reg.t; rs1 : Reg.t; imm : int; ret : bool }
  | T_brr of { freq : Bor_core.Freq.t; boff : int; target : int; fall : int }
  | T_brra of { joff : int; target : int }
  | T_halt
  | T_fall of { next : int; set : bool }

type block = {
  b_ops : (unit -> unit) array;
      (* body micro-ops in program order: conditional/unconditional
         icache-line touches, fused register ops, loads and stores *)
  b_count : int;  (* instructions this block retires *)
  b_plain : int;  (* Alu/Alui/Lui/Nop ops, stats-batched at block end *)
  b_term : term;
  b_term_pc : int;
  b_term_set_pc : bool;  (* machine pc is stale when the body ends *)
}

type entry = Unknown | Never | Compiled of block

type t = {
  code : Instr.t array;
  base : int;
  ncode : int;
  text_lo : int;
  text_hi : int;  (* [text_lo, text_hi): store-invalidation range *)
  brr_in_pred : bool;
  m : Machine.t;
  regs : int array;  (* the machine's live register file *)
  hier : Hierarchy.t;
  pred : Predictor.t;
  btb : Btb.t;
  ras : Ras.t;
  engine : Bor_core.Engine.t;
  warm : warm;
  on_brr : bool -> unit;
  entries : entry array;
  mutable gen : int;  (* Machine.code_generation at last (re)build *)
  mutable flush_pending : bool;  (* a store hit the text range *)
  stats : stats;
}

(* Bound on body length: keeps one block well under the warmer's 64k
   sanitizer chunk and bounds compile latency; a longer stretch simply
   continues in the next block. *)
let max_body = 512

let create ~code ~code_base ~cfg ~machine ~hier ~pred ~btb ~ras ~engine ~warm
    ~on_brr =
  let ncode = Array.length code in
  {
    code;
    base = code_base;
    ncode;
    text_lo = code_base;
    text_hi = code_base + (4 * ncode);
    brr_in_pred = cfg.Config.brr_in_predictor;
    m = machine;
    regs = Machine.unsafe_regs machine;
    hier;
    pred;
    btb;
    ras;
    engine;
    warm;
    on_brr;
    entries = Array.make (max ncode 1) Unknown;
    gen = Machine.code_generation machine;
    flush_pending = false;
    stats =
      {
        compiled = 0;
        hits = 0;
        block_instructions = 0;
        invalidations = 0;
        fallback_steps = 0;
      };
  }

let stats t = t.stats

let flush t =
  Array.fill t.entries 0 (Array.length t.entries) Unknown;
  t.flush_pending <- false;
  t.gen <- Machine.code_generation t.m;
  t.stats.invalidations <- t.stats.invalidations + 1

let note_store t addr =
  if addr >= t.text_lo && addr < t.text_hi then t.flush_pending <- true

let note_fallback t n =
  t.stats.fallback_steps <- t.stats.fallback_steps + n

(* ------------------------------------------------------------ Compile *)

(* Fused register op: exactly [Machine.exec_decoded]'s Alu/Alui/Lui
   arm minus stats and pc upkeep (batched at block end), with operand
   indices, immediates and shift amounts resolved now. The formulas
   mirror Instr.eval_alu composed with Machine.set_reg: eval_alu wraps
   its result and set_reg wraps again — wrapping is idempotent, so one
   wrap here is the same function. [None] = architectural no-op (nop,
   or a write to x0), still counted as an instruction. *)
let compile_regop t (i : Instr.t) : (unit -> unit) option =
  let regs = t.regs in
  let[@inline] g a = Array.unsafe_get regs a in
  let set d v = Array.unsafe_set regs d (Bits.wrap32 v) in
  match i with
  | Instr.Nop -> None
  | Instr.Lui (rd, imm) ->
    let d = Reg.to_int rd in
    if d = 0 then None
    else
      let v = Bits.wrap32 (imm lsl 12) in
      Some (fun () -> Array.unsafe_set regs d v)
  | Instr.Alu (op, rd, rs1, rs2) -> (
    let d = Reg.to_int rd in
    if d = 0 then None
    else
      let a = Reg.to_int rs1 and b = Reg.to_int rs2 in
      match op with
      | Instr.Add -> Some (fun () -> set d (g a + g b))
      | Instr.Sub -> Some (fun () -> set d (g a - g b))
      | Instr.And -> Some (fun () -> set d (g a land g b))
      | Instr.Or -> Some (fun () -> set d (g a lor g b))
      | Instr.Xor -> Some (fun () -> set d (g a lxor g b))
      | Instr.Sll -> Some (fun () -> set d (Bits.to_u32 (g a) lsl (g b land 31)))
      | Instr.Srl -> Some (fun () -> set d (Bits.to_u32 (g a) lsr (g b land 31)))
      | Instr.Sra -> Some (fun () -> set d (g a asr (g b land 31)))
      | Instr.Slt -> Some (fun () -> set d (if g a < g b then 1 else 0))
      | Instr.Sltu ->
        Some (fun () -> set d (if Bits.to_u32 (g a) < Bits.to_u32 (g b) then 1 else 0))
      | Instr.Mul -> Some (fun () -> set d (g a * g b)))
  | Instr.Alui (op, rd, rs1, imm) -> (
    let d = Reg.to_int rd in
    if d = 0 then None
    else
      let a = Reg.to_int rs1 in
      let sh = imm land 31 in
      match op with
      | Instr.Add -> Some (fun () -> set d (g a + imm))
      | Instr.Sub -> Some (fun () -> set d (g a - imm))
      | Instr.And -> Some (fun () -> set d (g a land imm))
      | Instr.Or -> Some (fun () -> set d (g a lor imm))
      | Instr.Xor -> Some (fun () -> set d (g a lxor imm))
      | Instr.Sll -> Some (fun () -> set d (Bits.to_u32 (g a) lsl sh))
      | Instr.Srl -> Some (fun () -> set d (Bits.to_u32 (g a) lsr sh))
      | Instr.Sra -> Some (fun () -> set d (g a asr sh))
      | Instr.Slt -> Some (fun () -> set d (if g a < imm then 1 else 0))
      | Instr.Sltu ->
        Some (fun () -> set d (if Bits.to_u32 (g a) < Bits.to_u32 imm then 1 else 0))
      | Instr.Mul -> Some (fun () -> set d (g a * imm)))
  | _ -> None

(* Specialize the block starting at [pc] (= base + 4*idx). Returns the
   entry to cache there. *)
let compile t idx pc =
  let w = t.warm in
  let hier = t.hier in
  let m = t.m in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  (* Compile-time shadows: [cur_line] is the icache line the previous
     instruction proved most-recent; [known_pc] is the machine's pc
     value at this point of block execution (the driver dispatches on
     [Machine.pc], so it equals [pc] at entry; register ops do not
     advance it, every oracle executor does). *)
  let cur_line = ref min_int in
  let known_pc = ref pc in
  let n_plain = ref 0 in
  let count = ref 0 in
  let touch_step p =
    let il = p land w.lmask in
    if !cur_line = min_int then
      (* First line of the block: the MRU tracker may or may not
         already hold it — the runtime check is warm_run's [touch]. *)
      emit (fun () ->
          if il <> w.iline then begin
            w.iline <- il;
            ignore (Hierarchy.access hier Hierarchy.I p)
          end)
    else if il <> !cur_line then
      (* Later boundary: the tracker provably holds the previous line
         (lines of a straight-line block are distinct and increasing),
         so the probe always fires. *)
      emit (fun () ->
          w.iline <- il;
          ignore (Hierarchy.access hier Hierarchy.I p));
    cur_line := il
  in
  let rec walk j p =
    if j >= t.ncode || !count >= max_body then
      finish (T_fall { next = p; set = !known_pc <> p }) (-1)
    else
      match Array.unsafe_get t.code j with
      | (Instr.Alu _ | Instr.Alui _ | Instr.Lui _ | Instr.Nop) as i ->
        touch_step p;
        (match compile_regop t i with Some f -> emit f | None -> ());
        incr n_plain;
        incr count;
        walk (j + 1) (p + 4)
      | Instr.Load (wd, rd, rs1, loff) ->
        touch_step p;
        let need_pc = !known_pc <> p in
        emit
          (if need_pc then fun () ->
             Machine.set_pc m p;
             touch_data w hier (Machine.exec_load m wd rd rs1 loff)
           else fun () ->
             touch_data w hier (Machine.exec_load m wd rd rs1 loff));
        known_pc := p + 4;
        incr count;
        walk (j + 1) (p + 4)
      | Instr.Store (wd, rsrc, rbase, soff) ->
        touch_step p;
        let need_pc = !known_pc <> p in
        let store () =
          let addr = Machine.exec_store m wd rsrc rbase soff in
          if addr >= t.text_lo && addr < t.text_hi then t.flush_pending <- true;
          touch_data w hier addr
        in
        emit
          (if need_pc then fun () ->
             Machine.set_pc m p;
             store ()
           else store);
        known_pc := p + 4;
        incr count;
        walk (j + 1) (p + 4)
      | Instr.Branch (c, rs1, rs2, boff) ->
        touch_step p;
        incr count;
        finish
          (T_branch
             { cond = c; rs1; rs2; boff; target = p + (4 * boff); fall = p + 4 })
          p
      | Instr.Jal (rd, joff) ->
        touch_step p;
        incr count;
        finish
          (T_jal
             {
               rd;
               joff;
               push = Reg.equal rd Reg.ra;
               link = p + 4;
               target = p + (4 * joff);
             })
          p
      | Instr.Jalr (rd, rs1, imm) ->
        touch_step p;
        incr count;
        (* [Pipeline.is_return]: [jalr x0, ra, _] pops the RAS. *)
        let ret = Reg.equal rd Reg.zero && Reg.equal rs1 Reg.ra in
        finish (T_jalr { rd; rs1; imm; ret }) p
      | Instr.Brr (freq, boff) ->
        touch_step p;
        incr count;
        finish (T_brr { freq; boff; target = p + (4 * boff); fall = p + 4 }) p
      | Instr.Brr_always joff ->
        touch_step p;
        incr count;
        finish (T_brra { joff; target = p + (4 * joff) }) p
      | Instr.Halt ->
        touch_step p;
        incr count;
        finish T_halt p
      | Instr.Rdlfsr _ | Instr.Marker _ ->
        (* Not provably effect-free under specialization (LFSR read,
           marker hooks): end the block before it; the driver
           single-steps it on the reference path. *)
        finish (T_fall { next = p; set = !known_pc <> p }) (-1)
  and finish term term_pc =
    if !count = 0 then Never
    else begin
      let b =
        {
          b_ops = Array.of_list (List.rev !ops);
          b_count = !count;
          b_plain = !n_plain;
          b_term = term;
          b_term_pc = term_pc;
          b_term_set_pc = (term_pc >= 0 && !known_pc <> term_pc);
        }
      in
      t.stats.compiled <- t.stats.compiled + 1;
      Compiled b
    end
  in
  let e = walk idx pc in
  t.entries.(idx) <- e;
  e

(* ------------------------------------------------------------ Execute *)

(* Terminator execution: each arm is warm_run's corresponding arm with
   the compile-time-constant parts folded away. The icache touch for
   the terminator already ran as the last body micro-op. Returns the
   next pc so [run] can chain straight into the following block
   without re-reading it from the machine ([-1] = halted). The oracle
   executors keep the machine's own pc in lockstep, so the returned
   value always equals [Machine.pc] — the driver relies on that when
   it falls back to single-stepping. *)
let exec_term t (b : block) =
  if b.b_term_set_pc then Machine.set_pc t.m b.b_term_pc;
  let m = t.m in
  match b.b_term with
  | T_branch { cond; rs1; rs2; boff; target; fall } ->
    let taken = Machine.exec_branch m cond rs1 rs2 boff in
    warm_branch t.pred t.btb t.warm ~pc:b.b_term_pc ~taken ~target;
    if taken then target else fall
  | T_jal { rd; joff; push; link; target } ->
    if push then Ras.push t.ras link;
    Machine.exec_jal m rd joff;
    target
  | T_jalr { rd; rs1; imm; ret } ->
    if ret then ignore (Ras.pop_target t.ras);
    Machine.exec_jalr m rd rs1 imm
  | T_brr { freq; boff; target; fall } ->
    let outcome = Bor_core.Engine.decide t.engine freq in
    if t.brr_in_pred then
      warm_branch t.pred t.btb t.warm ~pc:b.b_term_pc ~taken:outcome ~target;
    Machine.exec_brr_decided m ~taken:outcome ~offset:boff;
    t.on_brr outcome;
    if outcome then target else fall
  | T_brra { joff; target } ->
    Machine.exec_brr_decided m ~taken:true ~offset:joff;
    target
  | T_halt ->
    Machine.exec_decoded m Instr.Halt;
    -1
  | T_fall { next; set } ->
    if set then Machine.set_pc m next;
    next

type status = Halted | Uncompilable | Out_of_budget

(* The hot loop: chain block to block on the pc each terminator
   returns, so steady-state warming never leaves this function — no
   per-block [Machine.pc]/[code_generation] reads and no per-block
   stats upkeep (hits and instruction counts are batched at exit). The
   code-generation check happens once at entry: nothing inside a block
   can patch code (marker hooks, the only patch vector, end blocks and
   run on the fallback path), and the driver re-enters [run] — and so
   re-checks — after every fallback. [flush_pending] is re-checked
   every iteration because a store inside the previous block can set
   it. *)
let run t ~budget =
  if t.flush_pending || Machine.code_generation t.m <> t.gen then flush t;
  let m = t.m in
  let s = Machine.stats m in
  let entries = t.entries in
  let base = t.base and ncode = t.ncode in
  let n = ref 0 in
  let hits = ref 0 in
  let pc = ref (Machine.pc m) in
  let status = ref Out_of_budget in
  let looping = ref true in
  while !looping do
    if t.flush_pending then flush t;
    let off = !pc - base in
    if off < 0 || off land 3 <> 0 || off lsr 2 >= ncode then begin
      status := Uncompilable;
      looping := false
    end
    else begin
      let idx = off lsr 2 in
      let e =
        match Array.unsafe_get entries idx with
        | Unknown -> compile t idx !pc
        | e -> e
      in
      match e with
      | Never | Unknown ->
        status := Uncompilable;
        looping := false
      | Compiled b ->
        if b.b_count > budget - !n then begin
          status := Out_of_budget;
          looping := false
        end
        else begin
          let ops = b.b_ops in
          for i = 0 to Array.length ops - 1 do
            (Array.unsafe_get ops i) ()
          done;
          let next = exec_term t b in
          s.Machine.instructions <- s.Machine.instructions + b.b_plain;
          n := !n + b.b_count;
          incr hits;
          if next < 0 then begin
            status := Halted;
            looping := false
          end
          else begin
            pc := next;
            if !n >= budget then begin
              status := Out_of_budget;
              looping := false
            end
          end
        end
    end
  done;
  t.stats.hits <- t.stats.hits + !hits;
  t.stats.block_instructions <- t.stats.block_instructions + !n;
  (!n, !status)
