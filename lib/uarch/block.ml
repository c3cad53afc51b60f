(* The warm-state record and functional warming (see block.mli and
   docs/WARMING.md): the warmed structures, both warming paths — the
   single-step reference [warm_run] and the block translation cache —
   and the driver that chooses between them.

   A block is compiled once from the decoded text and replayed many
   times. Correctness is an ordering argument: executing a block must
   perform the exact same sequence of mutating calls — Hierarchy.access
   on the I and D ports (the shared L2 makes their interleaving
   observable), Predictor.predict/update/recover, Btb.lookup_target/
   insert, Ras.push/pop_target, Engine.decide, and the oracle's
   executors — as single-stepping the same instructions through
   [warm_run]. Every compilation rule below exists to preserve that
   sequence; the speedup comes only from resolving dispatch, operands,
   icache line boundaries and pc bookkeeping at compile time. The rules
   both paths must apply identically — a conditional transfer's
   predictor/BTB step and a dcache probe — exist once, as [warm_branch]
   and [touch_data], and both paths call them. *)

module Machine = Bor_sim.Machine
module Instr = Bor_isa.Instr
module Reg = Bor_isa.Reg
module Bits = Bor_util.Bits
module Telemetry = Bor_telemetry.Telemetry
module Check = Bor_check.Check

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

type warm = {
  oracle : Machine.t;
  engine : Bor_core.Engine.t;
  hier : Hierarchy.t;
  pred : Predictor.t;
  btb : Btb.t;
  ras : Ras.t;
  code : Instr.t array;
  code_base : int;
  brr_in_pred : bool;
  use_blocks : bool;
  lmask : int;
  mutable iline : int;
  mutable dline : int;
  mutable mispredicts : int;
  tel_cache : Hierarchy.t Telemetry.family;
  mutable blocks : (t * stats Telemetry.family) option;
}

and t = {
  w : warm;
  entries : entry array;
  mutable gen : int;  (* Machine.code_generation at last (re)build *)
  mutable flush_pending : bool;  (* a store hit the text range *)
  stats : stats;
}

(* The warming.block.* counters, one [stats] field each. *)
let block_counters =
  [|
    ("compiled", "blocks", "blocks specialized", fun s -> s.compiled);
    ("hits", "blocks", "block executions", fun s -> s.hits);
    ("instructions", "instructions",
     "instructions warmed through compiled blocks",
     fun s -> s.block_instructions);
    ("invalidations", "events",
     "whole-cache flushes (code patches, text-range stores)",
     fun s -> s.invalidations);
    ("fallback_steps", "instructions",
     "instructions single-stepped while the cache was active",
     fun s -> s.fallback_steps);
  |]

(* The cache.<level>.* counters, from each level's [Cache.stats]. Those
   reset at [marker 1] only, after a publish, so the counters cover
   whole runs, warming included. *)
let cache_counters =
  List.concat_map
    (fun (level, cache) ->
      let stats h = Cache.stats (cache h) in
      [
        (level ^ ".hits", "events", "accesses that hit",
         fun h -> (stats h).Cache.accesses - (stats h).Cache.misses);
        (level ^ ".misses", "events", "accesses that missed",
         fun h -> (stats h).Cache.misses);
        (level ^ ".evictions", "events", "misses that displaced a valid line",
         fun h -> (stats h).Cache.evictions);
      ])
    [ ("l1i", Hierarchy.l1i); ("l1d", Hierarchy.l1d); ("l2", Hierarchy.l2) ]
  |> Array.of_list

let fresh_warm ?reuse ~brr_mode (config : Config.t)
    (program : Bor_isa.Program.t) =
  let old f = Option.map f reuse in
  {
    oracle =
      Machine.create ?mem:(old (fun w -> Machine.memory w.oracle)) ~brr_mode
        program;
    engine = Bor_core.Engine.create ~seed:config.lfsr_seed ();
    hier = Hierarchy.create ?reuse:(old (fun w -> w.hier)) config;
    pred = Predictor.create ?reuse:(old (fun w -> w.pred)) config;
    btb = Btb.create ?reuse:(old (fun w -> w.btb)) ~entries:config.btb_entries ();
    ras = Ras.create ~entries:config.ras_entries;
    code = program.text;
    code_base = program.text_base;
    brr_in_pred = config.brr_in_predictor;
    use_blocks = config.warm_block_cache;
    lmask = lnot (config.line_bytes - 1);
    iline = -1;
    dline = -1;
    mispredicts = 0;
    tel_cache = Telemetry.family (Telemetry.scope "cache") cache_counters;
    blocks = None;
  }

let regions =
  let lfsr w = Bor_core.Engine.lfsr w.engine in
  Region.Scalar
    ( "lfsr",
      (fun w -> Bor_lfsr.Lfsr.peek (lfsr w)),
      fun w v -> Bor_lfsr.Lfsr.set_state (lfsr w) v )
  :: List.concat
       [
         Region.lift (fun w -> w.pred) Predictor.regions;
         Region.lift ~prefix:"btb" (fun w -> w.btb) Btb.regions;
         Region.lift ~prefix:"ras" (fun w -> w.ras) Ras.regions;
         Region.lift (fun w -> w.hier) Hierarchy.regions;
       ]

let state_digests w =
  Hierarchy.state_digests w.hier
  @ [
      ("predictor", Predictor.state_digest w.pred);
      ("btb", Btb.state_digest w.btb);
      ("ras", Ras.state_digest w.ras);
      ( "lfsr",
        string_of_int (Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr w.engine)) );
    ]

let touch_data w addr =
  let dl = addr land w.lmask in
  if dl <> w.dline then begin
    w.dline <- dl;
    ignore (Hierarchy.access w.hier Hierarchy.D addr)
  end

(* Mirror full detail: history recovers only on a squash (stream
   mismatch — a predicted-taken BTB miss that falls through to the
   right place never squashes, leaving the speculative shift in place),
   and the tables train at commit. [Predictor.update] writes only the
   tables and [recover] only the history, so their order is free. *)
let warm_branch w ~pc ~taken ~target =
  let pred = w.pred in
  let fall = pc + 4 in
  let pr = Predictor.predict pred ~pc in
  let stream_next =
    if Predictor.taken pr then begin
      let bt = Btb.lookup_target w.btb ~pc in
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
  if taken then Btb.insert w.btb ~pc ~target

(* [jalr x0, ra, _] pops the RAS, as in full detail. *)
let is_return rd rs1 = Reg.equal rd Reg.zero && Reg.equal rs1 Reg.ra

(* Bound on body length: keeps one block well under the warmer's 64k
   sanitizer chunk and bounds compile latency; a longer stretch simply
   continues in the next block. *)
let max_body = 512

let create w =
  {
    w;
    entries = Array.make (max (Array.length w.code) 1) Unknown;
    gen = Machine.code_generation w.oracle;
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
  t.gen <- Machine.code_generation t.w.oracle;
  t.stats.invalidations <- t.stats.invalidations + 1

(* A store into the text range schedules a whole-cache flush, on
   either warming path. *)
let in_text w addr =
  addr >= w.code_base && addr < w.code_base + (4 * Array.length w.code)

(* ------------------------------------------------------------ Compile *)

(* Fused register op: exactly [Machine.exec_decoded]'s Alu/Alui/Lui
   arm minus stats and pc upkeep (batched at block end), with operand
   indices, immediates and shift amounts resolved now. The formulas
   mirror Instr.eval_alu composed with Machine.set_reg: eval_alu wraps
   its result and set_reg wraps again — wrapping is idempotent, so one
   wrap here is the same function. [None] = architectural no-op (nop,
   or a write to x0), still counted as an instruction. *)
let compile_regop w (i : Instr.t) : (unit -> unit) option =
  let regs = Machine.unsafe_regs w.oracle in
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
  let w = t.w in
  let hier = w.hier in
  let m = w.oracle in
  let code = w.code in
  let ncode = Array.length code in
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
         already hold it — the runtime check is [warm_run]'s probe. *)
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
    if j >= ncode || !count >= max_body then
      finish (T_fall { next = p; set = !known_pc <> p }) (-1)
    else
      match Array.unsafe_get code j with
      | (Instr.Alu _ | Instr.Alui _ | Instr.Lui _ | Instr.Nop) as i ->
        touch_step p;
        (match compile_regop w i with Some f -> emit f | None -> ());
        incr n_plain;
        incr count;
        walk (j + 1) (p + 4)
      | Instr.Load (wd, rd, rs1, loff) ->
        touch_step p;
        let need_pc = !known_pc <> p in
        emit
          (if need_pc then fun () ->
             Machine.set_pc m p;
             touch_data w (Machine.exec_load m wd rd rs1 loff)
           else fun () -> touch_data w (Machine.exec_load m wd rd rs1 loff));
        known_pc := p + 4;
        incr count;
        walk (j + 1) (p + 4)
      | Instr.Store (wd, rsrc, rbase, soff) ->
        touch_step p;
        let need_pc = !known_pc <> p in
        let store () =
          let addr = Machine.exec_store m wd rsrc rbase soff in
          if in_text w addr then t.flush_pending <- true;
          touch_data w addr
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
        finish (T_jalr { rd; rs1; imm; ret = is_return rd rs1 }) p
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

(* Terminator execution: each arm is [warm_run]'s corresponding arm with
   the compile-time-constant parts folded away. The icache touch for
   the terminator already ran as the last body micro-op. Returns the
   next pc so [run] can chain straight into the following block
   without re-reading it from the machine ([-1] = halted). The oracle
   executors keep the machine's own pc in lockstep, so the returned
   value always equals [Machine.pc] — the driver relies on that when
   it falls back to single-stepping. *)
let exec_term w (b : block) =
  let m = w.oracle in
  if b.b_term_set_pc then Machine.set_pc m b.b_term_pc;
  match b.b_term with
  | T_branch { cond; rs1; rs2; boff; target; fall } ->
    let taken = Machine.exec_branch m cond rs1 rs2 boff in
    warm_branch w ~pc:b.b_term_pc ~taken ~target;
    if taken then target else fall
  | T_jal { rd; joff; push; link; target } ->
    if push then Ras.push w.ras link;
    Machine.exec_jal m rd joff;
    target
  | T_jalr { rd; rs1; imm; ret } ->
    if ret then ignore (Ras.pop_target w.ras);
    Machine.exec_jalr m rd rs1 imm
  | T_brr { freq; boff; target; fall } ->
    let outcome = Bor_core.Engine.decide w.engine freq in
    if w.brr_in_pred then warm_branch w ~pc:b.b_term_pc ~taken:outcome ~target;
    Machine.exec_brr_decided m ~taken:outcome ~offset:boff;
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
  let w = t.w in
  let m = w.oracle in
  if t.flush_pending || Machine.code_generation m <> t.gen then flush t;
  let s = Machine.stats m in
  let entries = t.entries in
  let base = w.code_base and ncode = Array.length w.code in
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
          let next = exec_term w b in
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

(* ------------------------------------------------------------ Warming *)

(* The single-step reference path: execute on the oracle while updating
   the warmed structures exactly as a full-detail run would on the
   correct path — no ROB, issue, or flush modelling. Every instruction
   runs through the oracle's own executor for its kind, after the site
   lookup [Machine.step] would have made. Two throughput tricks, neither
   of which changes the warmed state:

   - Consecutive accesses to the same cache line are deduplicated, on
     both the icache and dcache ports: re-touching the most recently
     used line is a strict no-op — it hits, changing neither contents
     nor the relative recency order that decides future evictions.
   - The pc is tracked locally: every BRISC instruction except jalr
     either falls through or has a statically known target, so the
     per-instruction [Machine.pc] and [Machine.halted] calls disappear
     from the common path. [pc] goes to -1 when the program halts.

   Warms up to [budget] instructions; returns how many ran (short when
   the program halted). *)
let warm_run w budget =
  if budget <= 0 || Machine.halted w.oracle then 0
  else begin
    let open Instr in
    let m = w.oracle in
    let code = w.code in
    let ncode = Array.length code in
    let base = w.code_base in
    let lmask = w.lmask in
    let hier = w.hier in
    let n = ref 0 in
    let pc = ref (Machine.pc m) in
    let iline = ref w.iline in
    while !n < budget && !pc >= 0 do
      let p = !pc in
      let off = p - base in
      let il = p land lmask in
      if il <> !iline then begin
        iline := il;
        ignore (Hierarchy.access hier Hierarchy.I p)
      end;
      (if off < 0 || off land 3 <> 0 || off lsr 2 >= ncode then begin
         Machine.step m;
         (* unreachable: [step] faulted *)
         pc := Machine.pc m
       end
       else begin
         if Machine.has_site_hooks m then Machine.visit_site m p;
         let fall = p + 4 in
         match Array.unsafe_get code (off lsr 2) with
         | Branch (c, rs1, rs2, boff) ->
           let taken = Machine.exec_branch m c rs1 rs2 boff in
           let target = p + (4 * boff) in
           warm_branch w ~pc:p ~taken ~target;
           pc := if taken then target else fall
         | Jal (rd, joff) ->
           if Reg.equal rd Reg.ra then Ras.push w.ras fall;
           Machine.exec_jal m rd joff;
           pc := p + (4 * joff)
         | Jalr (rd, rs1, imm) ->
           if is_return rd rs1 then ignore (Ras.pop_target w.ras);
           pc := Machine.exec_jalr m rd rs1 imm
         | Brr (freq, boff) ->
           let outcome = Bor_core.Engine.decide w.engine freq in
           let target = p + (4 * boff) in
           if w.brr_in_pred then warm_branch w ~pc:p ~taken:outcome ~target;
           (* The outcome is applied directly — no round trip through
              the oracle's decide hook. *)
           Machine.exec_brr_decided m ~taken:outcome ~offset:boff;
           pc := if outcome then target else fall
         | Brr_always joff ->
           Machine.exec_brr_decided m ~taken:true ~offset:joff;
           pc := p + (4 * joff)
         | Load (wd, rd, rs1, loff) ->
           touch_data w (Machine.exec_load m wd rd rs1 loff);
           pc := fall
         | Store (wd, rsrc, rbase, soff) ->
           let addr = Machine.exec_store m wd rsrc rbase soff in
           touch_data w addr;
           (* Keep the block cache's self-modification contract uniform:
              a fallback store into the text range flushes it too. *)
           (match w.blocks with
           | Some (bc, _) when in_text w addr -> bc.flush_pending <- true
           | _ -> ());
           pc := fall
         | Halt ->
           Machine.exec_decoded m Halt;
           pc := -1
         | (Alu _ | Alui _ | Lui _ | Nop | Rdlfsr _ | Marker _) as instr ->
           Machine.exec_decoded m instr;
           pc := fall
       end);
      incr n
    done;
    w.iline <- !iline;
    !n
  end

let warm_step w = ignore (warm_run w 1)

(* The translation cache and its warming.block.* family, built on the
   first block-mode chunk (so runs that never warm never register the
   family). *)
let cache w =
  match w.blocks with
  | Some (bc, _) -> bc
  | None ->
    let bc = create w in
    let tel =
      Telemetry.family (Telemetry.scope "warming.block") block_counters
    in
    w.blocks <- Some (bc, tel);
    bc

(* Block-compiled warming: execute whole specialized blocks through the
   translation cache and fall back to [warm_run] — the single-step
   reference — for anything else. The two paths share the MRU line
   trackers and perform identical sequences of structure updates, so
   which one ran any given instruction is unobservable in the warmed
   state. Budget exactness: a block longer than the remaining budget is
   never entered ([run] stops with [Out_of_budget]); its instructions
   are single-stepped instead, so [max_steps] lands on exactly the same
   instruction boundary as the reference path — sampling plans place
   their windows identically. *)
let warm_blocks w budget =
  let bc = cache w in
  let n = ref 0 in
  let stop = ref false in
  let fallback k =
    bc.stats.fallback_steps <- bc.stats.fallback_steps + k;
    n := !n + k
  in
  while (not !stop) && !n < budget && not (Machine.halted w.oracle) do
    let ran, status = run bc ~budget:(budget - !n) in
    n := !n + ran;
    match status with
    | Halted -> stop := true
    | Uncompilable ->
      (* Nothing compilable at this pc (marker/rdlfsr, out-of-text):
         single-step one instruction on the reference path. *)
      let k = warm_run w 1 in
      fallback k;
      if k = 0 then stop := true
    | Out_of_budget ->
      (* Budget reached, or the next block would overshoot it:
         single-step the remaining tail exactly. *)
      fallback (warm_run w (budget - !n));
      stop := true
  done;
  !n

(* Warming has no cycles, so no per-cycle sanitizer sees it: the
   driver audits the warmed structures once per chunk instead. *)
let audit w =
  try
    Machine.check w.oracle;
    Hierarchy.check w.hier;
    Ras.check w.ras
  with Check.Violation v when v.Check.state = [] ->
    raise (Check.Violation { v with Check.state = state_digests w })

(* Every exit publishes warming.block.* and cache.*, so a sweep that
   warms one period at a time keeps the registry current. *)
let run_warming ?max_steps w =
  Fun.protect ~finally:(fun () ->
      Telemetry.publish w.tel_cache w.hier;
      match w.blocks with
      | Some (bc, tel) -> Telemetry.publish tel bc.stats
      | None -> ())
  @@ fun () ->
  let budget = match max_steps with Some n -> n | None -> max_int in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ && !total < budget do
    let chunk = min 65536 (budget - !total) in
    (* The block cache skips the per-instruction site lookup, so any
       machine that could fire site hooks warms on the single-step
       path (checked per chunk — hooks can be registered mid-run). *)
    let ran =
      if w.use_blocks && not (Machine.has_site_hooks w.oracle) then
        warm_blocks w chunk
      else warm_run w chunk
    in
    total := !total + ran;
    if !Check.on then audit w;
    if ran < chunk then continue_ := false
  done;
  !total
