type brr_mode =
  | Hardware of Bor_core.Engine.t
  | Trap_emulated of Bor_core.Engine.t
  | Fixed_interval
  | External of (Bor_core.Freq.t -> bool)

type stats = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable cond_branches : int;
  mutable cond_taken : int;
  mutable brr_executed : int;
  mutable brr_taken : int;
  mutable markers : int;
  mutable traps : int;
}

(* Pre-decoded text image. In [Trap_emulated] mode branch-on-randoms are
   stored as their trap-raising binary word. *)
type slot = Decoded of Bor_isa.Instr.t | Illegal_word of int

type t = {
  program : Bor_isa.Program.t;
  code : slot array;
  mem : Memory.t;
  regs : int array;
  mutable pc : int;
  mutable halted : bool;
  mode : brr_mode;
  mutable interval_counter : int; (* Fixed_interval state *)
  stats : stats;
  site_index : (int, int) Hashtbl.t; (* text address -> site id *)
  mutable site_hooks : (int -> unit) list;
  mutable marker_hooks : (int -> unit) list;
  mutable code_gen : int;
      (* bumped on every code patch, so derived code (the warmer's block
         translation cache) can notice and invalidate itself *)
}

let patch_brr_freq t ~pc freq =
  let idx = (pc - t.program.text_base) asr 2 in
  if pc land 3 <> 0 || idx < 0 || idx >= Array.length t.code then
    invalid_arg "Machine.patch_brr_freq: pc outside text";
  (match t.code.(idx) with
  | Decoded (Bor_isa.Instr.Brr (_, off)) ->
    t.code.(idx) <- Decoded (Bor_isa.Instr.Brr (freq, off))
  | Illegal_word w -> (
    match Bor_isa.Encoding.decode_illegal_brr w with
    | Some (_, off) -> (
      match Bor_isa.Encoding.illegal_brr_word freq ~offset:off with
      | Ok w' -> t.code.(idx) <- Illegal_word w'
      | Error e -> invalid_arg ("Machine.patch_brr_freq: " ^ e))
    | None -> invalid_arg "Machine.patch_brr_freq: not a branch-on-random")
  | Decoded _ -> invalid_arg "Machine.patch_brr_freq: not a branch-on-random");
  t.code_gen <- t.code_gen + 1

let code_generation t = t.code_gen

exception Fault of { pc : int; message : string }

let fault pc fmt =
  Printf.ksprintf (fun message -> raise (Fault { pc; message })) fmt

let fresh_stats () =
  {
    instructions = 0;
    loads = 0;
    stores = 0;
    cond_branches = 0;
    cond_taken = 0;
    brr_executed = 0;
    brr_taken = 0;
    markers = 0;
    traps = 0;
  }

let build_code (p : Bor_isa.Program.t) mode =
  let encode_slot (i : Bor_isa.Instr.t) =
    match (mode, i) with
    | Trap_emulated _, Bor_isa.Instr.Brr (f, off) -> (
      match Bor_isa.Encoding.illegal_brr_word f ~offset:off with
      | Ok w -> Illegal_word w
      | Error e -> invalid_arg ("Machine.create: " ^ e))
    | _, i -> Decoded i
  in
  Array.map encode_slot p.text

let default_mem_size = 8 * 1024 * 1024

let check_data (p : Bor_isa.Program.t) =
  Memory.check_segment ~size:default_mem_size ~base:p.data_base
    (Bytes.length p.data)

let create ?mem_size ?mem ?(brr_mode = Hardware (Bor_core.Engine.create ()))
    (p : Bor_isa.Program.t) =
  let mem =
    match (mem, mem_size) with
    | None, _ ->
      Memory.create ~size:(Option.value mem_size ~default:default_mem_size)
    | Some m, Some size when size <> Memory.size m ->
      invalid_arg "Machine.create: ~mem_size disagrees with ~mem"
    | Some m, _ ->
      Memory.clear m;
      m
  in
  let mem_size = Memory.size mem in
  Memory.load_segment mem ~base:p.data_base p.data;
  let regs = Array.make Bor_isa.Reg.count 0 in
  regs.(Bor_isa.Reg.to_int Bor_isa.Reg.sp) <- mem_size - 16;
  regs.(Bor_isa.Reg.to_int Bor_isa.Reg.gp) <- p.data_base;
  let site_index = Hashtbl.create (max 1 (List.length p.sites)) in
  List.iter (fun (addr, id) -> Hashtbl.replace site_index addr id) p.sites;
  {
    program = p;
    code = build_code p brr_mode;
    mem;
    regs;
    pc = p.entry;
    halted = false;
    mode = brr_mode;
    interval_counter = -1;
    stats = fresh_stats ();
    site_index;
    site_hooks = [];
    marker_hooks = [];
    code_gen = 0;
  }

let program t = t.program
let pc t = t.pc
let set_pc t pc = t.pc <- pc
let unsafe_regs t = t.regs

let has_site_hooks t =
  match t.site_hooks with [] -> false | _ -> Hashtbl.length t.site_index > 0
let reg t r = t.regs.(Bor_isa.Reg.to_int r)

let[@inline] set_reg t r v =
  let i = Bor_isa.Reg.to_int r in
  if i <> 0 then t.regs.(i) <- Bor_util.Bits.wrap32 v

let memory t = t.mem
let stats t = t.stats
let halted t = t.halted

type arch = { a_pc : int; a_regs : int array; a_halted : bool }

let export_arch t = { a_pc = t.pc; a_regs = Array.copy t.regs; a_halted = t.halted }

let import_arch t a =
  if Array.length a.a_regs <> Array.length t.regs then
    invalid_arg "Machine.import_arch: register-file width mismatch";
  (* A loop typed [int array], not [Array.blit]: into a register file
     on the major heap (a pooled pipeline's oracle) the blit goes
     through [caml_modify] per word. *)
  for i = 0 to Array.length t.regs - 1 do
    Array.unsafe_set t.regs i (Array.unsafe_get a.a_regs i)
  done;
  t.pc <- a.a_pc;
  t.halted <- a.a_halted
let on_site t f = t.site_hooks <- f :: t.site_hooks
let on_marker t f = t.marker_hooks <- f :: t.marker_hooks

let brr_outcome t freq =
  match t.mode with
  | Hardware engine | Trap_emulated engine -> Bor_core.Engine.decide engine freq
  | External decide -> decide freq
  | Fixed_interval ->
    if t.interval_counter < 0 then
      t.interval_counter <- Bor_core.Freq.period freq - 1;
    if t.interval_counter = 0 then begin
      t.interval_counter <- Bor_core.Freq.period freq - 1;
      true
    end
    else begin
      t.interval_counter <- t.interval_counter - 1;
      false
    end

(* Module-level so [step] does not allocate a closure per instruction
   on the non-flambda compiler. *)
let[@inline] rv regs r = Array.unsafe_get regs (Bor_isa.Reg.to_int r)

(* The executors: the one body of each instruction kind the warmer
   also dispatches on itself, taking the already-destructured fields.
   [exec_decoded] runs them, so the functional model and the warmer
   execute the same code. Each executes the instruction at the current
   pc: the caller guarantees the machine is not halted, and site hooks
   are the caller's to visit. Those without an exception handler are
   [@inline], so [exec_decoded] pays no call for them (the non-flambda
   compiler does not inline a function with a handler); with the calls,
   a functional run of a branchy loop was about 2% slower. *)

(* A branch-on-random's outcome comes from the caller: [brr_outcome]
   on the functional path, the warmer's own LFSR engine when
   warming. *)
let[@inline] exec_brr_decided t ~taken ~offset =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  s.brr_executed <- s.brr_executed + 1;
  if taken then begin
    s.brr_taken <- s.brr_taken + 1;
    t.pc <- t.pc + (4 * offset)
  end
  else t.pc <- t.pc + 4

let[@inline] exec_branch t c rs1 rs2 off =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  s.cond_branches <- s.cond_branches + 1;
  let regs = t.regs in
  if Bor_isa.Instr.eval_cond c (rv regs rs1) (rv regs rs2) then begin
    s.cond_taken <- s.cond_taken + 1;
    t.pc <- t.pc + (4 * off);
    true
  end
  else begin
    t.pc <- t.pc + 4;
    false
  end

let exec_load t w rd rs1 off =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  s.loads <- s.loads + 1;
  let pc = t.pc in
  let addr = rv t.regs rs1 + off in
  (try
     match (w : Bor_isa.Instr.width) with
     | Word -> set_reg t rd (Memory.read_word t.mem addr)
     | Byte -> set_reg t rd (Memory.read_byte t.mem addr)
   with Memory.Fault m -> fault pc "%s" m);
  t.pc <- pc + 4;
  addr

let exec_store t w rsrc rbase off =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  s.stores <- s.stores + 1;
  let pc = t.pc in
  let regs = t.regs in
  let addr = rv regs rbase + off in
  (try
     match (w : Bor_isa.Instr.width) with
     | Word -> Memory.write_word t.mem addr (rv regs rsrc)
     | Byte -> Memory.write_byte t.mem addr (rv regs rsrc)
   with Memory.Fault m -> fault pc "%s" m);
  t.pc <- pc + 4;
  addr

let[@inline] exec_jal t rd off =
  t.stats.instructions <- t.stats.instructions + 1;
  let pc = t.pc in
  set_reg t rd (pc + 4);
  t.pc <- pc + (4 * off)

let[@inline] exec_jalr t rd rs1 imm =
  t.stats.instructions <- t.stats.instructions + 1;
  let pc = t.pc in
  let target = Bor_util.Bits.wrap32 (rv t.regs rs1 + imm) in
  set_reg t rd (pc + 4);
  t.pc <- target;
  target

let[@inline] count_instruction t =
  t.stats.instructions <- t.stats.instructions + 1

(* [step] minus the halted check, the fetch bounds check and the site
   lookup: every kind with an executor goes to it, the rest run here.
   [pc] and [regs] are read before the dispatch, as one read per arm
   ran an ALU loop about 4% slower. *)
let exec_decoded t (i : Bor_isa.Instr.t) =
  let pc = t.pc in
  let regs = t.regs in
  let open Bor_isa.Instr in
  match i with
  | Alu (op, rd, rs1, rs2) ->
    count_instruction t;
    set_reg t rd (eval_alu op (rv regs rs1) (rv regs rs2));
    t.pc <- pc + 4
  | Alui (op, rd, rs1, imm) ->
    count_instruction t;
    set_reg t rd (eval_alu op (rv regs rs1) imm);
    t.pc <- pc + 4
  | Lui (rd, imm) ->
    count_instruction t;
    set_reg t rd (Bor_util.Bits.wrap32 (imm lsl 12));
    t.pc <- pc + 4
  | Load (w, rd, rs1, off) -> ignore (exec_load t w rd rs1 off)
  | Store (w, rsrc, rbase, off) -> ignore (exec_store t w rsrc rbase off)
  | Branch (c, rs1, rs2, off) -> ignore (exec_branch t c rs1 rs2 off)
  | Jal (rd, off) -> exec_jal t rd off
  | Jalr (rd, rs1, imm) -> ignore (exec_jalr t rd rs1 imm)
  | Brr (freq, off) ->
    exec_brr_decided t ~taken:(brr_outcome t freq) ~offset:off
  | Brr_always off -> exec_brr_decided t ~taken:true ~offset:off
  | Rdlfsr rd ->
    count_instruction t;
    let v =
      match t.mode with
      | Hardware e | Trap_emulated e ->
        Bor_lfsr.Lfsr.peek (Bor_core.Engine.lfsr e)
      | Fixed_interval | External _ -> 0
    in
    set_reg t rd v;
    t.pc <- pc + 4
  | Marker n ->
    count_instruction t;
    t.stats.markers <- t.stats.markers + 1;
    List.iter (fun f -> f n) t.marker_hooks;
    t.pc <- pc + 4
  | Halt ->
    count_instruction t;
    t.halted <- true
  | Nop ->
    count_instruction t;
    t.pc <- pc + 4

let visit_site t pc =
  match Hashtbl.find_opt t.site_index pc with
  | Some id -> List.iter (fun f -> f id) t.site_hooks
  | None -> ()

let step t =
  if t.halted then ()
  else begin
    let pc = t.pc in
    let idx = (pc - t.program.text_base) asr 2 in
    if pc land 3 <> 0 || idx < 0 || idx >= Array.length t.code then
      fault pc "fetch outside text segment";
    (* Inline, so the common no-hook case costs no call. *)
    (match t.site_hooks with [] -> () | _ -> visit_site t pc);
    match t.code.(idx) with
    | Illegal_word w -> (
      (* The §3.4 SIGILL path: the O/S vectors to the registered handler,
         which emulates the branch-on-random in software. *)
      match Bor_isa.Encoding.decode_illegal_brr w with
      | Some (freq, off) ->
        t.stats.traps <- t.stats.traps + 1;
        exec_brr_decided t ~taken:(brr_outcome t freq) ~offset:off
      | None -> fault pc "illegal instruction 0x%08x" w)
    | Decoded i -> exec_decoded t i
  end

(* Oracle self-consistency for the pipeline sanitizer: a corrupted
   functional model would silently poison every differential
   comparison, so the lockstep cross-check validates the reference
   before trusting it. *)
let check ?cycle t =
  let module Check = Bor_check.Check in
  let fail inv fmt = Check.fail ?cycle ~component:"machine" ~invariant:inv fmt in
  if t.regs.(0) <> 0 then fail "zero-register" "x0 = %d" t.regs.(0);
  let lo = -0x8000_0000 and hi = 0x7fff_ffff in
  for i = 1 to Array.length t.regs - 1 do
    let v = t.regs.(i) in
    if v < lo || v > hi then
      fail "reg-width" "x%d = %d exceeds signed 32 bits" i v
  done;
  if (not t.halted) && t.pc land 3 <> 0 then
    fail "pc-aligned" "pc = 0x%x misaligned" t.pc;
  let s = t.stats in
  if
    s.instructions < 0 || s.loads < 0 || s.stores < 0 || s.cond_branches < 0
    || s.brr_executed < 0 || s.markers < 0 || s.traps < 0
  then fail "stats-nonnegative" "a stats counter went negative";
  if s.cond_taken < 0 || s.cond_taken > s.cond_branches then
    fail "cond-taken-bounded" "cond_taken=%d of cond_branches=%d" s.cond_taken
      s.cond_branches;
  if s.brr_taken < 0 || s.brr_taken > s.brr_executed then
    fail "brr-taken-bounded" "brr_taken=%d of brr_executed=%d" s.brr_taken
      s.brr_executed;
  if s.loads + s.stores + s.cond_branches + s.brr_executed > s.instructions
  then
    fail "class-counts-bounded"
      "loads+stores+branches+brrs = %d exceeds instructions = %d"
      (s.loads + s.stores + s.cond_branches + s.brr_executed)
      s.instructions;
  Check.count (Array.length t.regs + 5)

let run ?(max_steps = 1_000_000_000) t =
  let start = t.stats.instructions in
  try
    let rec go budget =
      if t.halted then Ok (t.stats.instructions - start)
      else if budget = 0 then Error "step budget exhausted"
      else begin
        step t;
        go (budget - 1)
      end
    in
    go max_steps
  with Fault { pc; message } ->
    Error (Printf.sprintf "fault at pc 0x%x: %s" pc message)
