type options = {
  counter_interval : int option;
  n_sites : int;
  roi_markers : bool;
}

let sc1, sc2, sc3 = Regalloc.scratch
let rname = Bor_isa.Reg.name

type frame = {
  size : int;
  spill_off : int;  (** base of spill slots *)
  array_off : int array;  (** per frame slot *)
  save_off : (Bor_isa.Reg.t * int) list;  (** callee-saved + ra *)
}

let align16 n = (n + 15) land lnot 15

let layout_frame (f : Ir.func) (alloc : Regalloc.allocation) =
  let spill_bytes = alloc.spill_slots * 4 in
  let array_off = Array.make (List.length f.Ir.frame_slots) 0 in
  let cursor = ref spill_bytes in
  List.iteri
    (fun i bytes ->
      array_off.(i) <- !cursor;
      cursor := !cursor + bytes)
    f.Ir.frame_slots;
  let save_off =
    List.map
      (fun r ->
        let off = !cursor in
        cursor := !cursor + 4;
        (r, off))
      (alloc.used_callee_saved @ [ Bor_isa.Reg.ra ])
  in
  { size = align16 !cursor; spill_off = 0; array_off; save_off }

type ctx = {
  buf : Buffer.t;
  f : Ir.func;
  alloc : Regalloc.allocation;
  frame : frame;
}

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf ("        " ^ s);
      Buffer.add_char ctx.buf '\n')
    fmt

let label ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (s ^ ":");
      Buffer.add_char ctx.buf '\n')
    fmt

let loc ctx v = ctx.alloc.locs.(v)
let spill_addr ctx s = ctx.frame.spill_off + (4 * s)

(* Bring a vreg's value into a register (possibly [fallback]). *)
let read_vreg ctx fallback v =
  match loc ctx v with
  | Regalloc.Preg r -> r
  | Regalloc.Spill s ->
    line ctx "lw %s, %d(sp)" (rname fallback) (spill_addr ctx s);
    fallback

(* Bring any operand into a register. *)
let read_operand ctx fallback = function
  | Ir.Vr v -> read_vreg ctx fallback v
  | Ir.Imm 0 -> Bor_isa.Reg.zero
  | Ir.Imm i ->
    line ctx "li %s, %d" (rname fallback) i;
    fallback

(* Target register for a def: the allocated reg, or a scratch that
   [finish] stores back to the spill slot. *)
let write_vreg ctx fallback v =
  match loc ctx v with
  | Regalloc.Preg r -> (r, fun () -> ())
  | Regalloc.Spill s ->
    ( fallback,
      fun () -> line ctx "sw %s, %d(sp)" (rname fallback) (spill_addr ctx s) )

let fits12 i = Bor_util.Bits.fits_signed i ~width:12

let alu_mnemonic : Bor_isa.Instr.alu_op -> string = function
  | Bor_isa.Instr.Add -> "add"
  | Bor_isa.Instr.Sub -> "sub"
  | Bor_isa.Instr.And -> "and"
  | Bor_isa.Instr.Or -> "or"
  | Bor_isa.Instr.Xor -> "xor"
  | Bor_isa.Instr.Sll -> "sll"
  | Bor_isa.Instr.Srl -> "srl"
  | Bor_isa.Instr.Sra -> "sra"
  | Bor_isa.Instr.Slt -> "slt"
  | Bor_isa.Instr.Sltu -> "sltu"
  | Bor_isa.Instr.Mul -> "mul"

let has_imm_form : Bor_isa.Instr.alu_op -> bool = function
  | Bor_isa.Instr.Add | Bor_isa.Instr.And | Bor_isa.Instr.Or
  | Bor_isa.Instr.Xor | Bor_isa.Instr.Sll | Bor_isa.Instr.Srl
  | Bor_isa.Instr.Sra | Bor_isa.Instr.Slt | Bor_isa.Instr.Sltu ->
    true
  | Bor_isa.Instr.Sub | Bor_isa.Instr.Mul -> false

let is_commutative : Bor_isa.Instr.alu_op -> bool = function
  | Bor_isa.Instr.Add | Bor_isa.Instr.And | Bor_isa.Instr.Or
  | Bor_isa.Instr.Xor | Bor_isa.Instr.Mul ->
    true
  | Bor_isa.Instr.Sub | Bor_isa.Instr.Sll | Bor_isa.Instr.Srl
  | Bor_isa.Instr.Sra | Bor_isa.Instr.Slt | Bor_isa.Instr.Sltu ->
    false

let emit_bin ctx op d a b =
  let dreg, finish = write_vreg ctx sc3 d in
  (* Normalise an immediate into the second slot when possible. *)
  let a, b =
    match (a, b) with
    | Ir.Imm _, Ir.Vr _ when is_commutative op -> (b, a)
    | _ -> (a, b)
  in
  let imm_mnemonic op =
    (* The assembler spells the unsigned set-less-than "sltiu". *)
    match op with
    | Bor_isa.Instr.Sltu -> "sltiu"
    | _ -> alu_mnemonic op ^ "i"
  in
  (match (op, a, b) with
  | _, a, Ir.Imm i when has_imm_form op && fits12 i ->
    let ra = read_operand ctx sc1 a in
    line ctx "%s %s, %s, %d" (imm_mnemonic op) (rname dreg) (rname ra) i
  | Bor_isa.Instr.Sub, a, Ir.Imm i when fits12 (-i) ->
    let ra = read_operand ctx sc1 a in
    line ctx "addi %s, %s, %d" (rname dreg) (rname ra) (-i)
  | _, a, b ->
    let ra = read_operand ctx sc1 a in
    let rb = read_operand ctx sc2 b in
    line ctx "%s %s, %s, %s" (alu_mnemonic op) (rname dreg) (rname ra)
      (rname rb));
  finish ()

let emit_set_cond ctx c d a b =
  let dreg, finish = write_vreg ctx sc3 d in
  let ra = read_operand ctx sc1 a in
  let rb = read_operand ctx sc2 b in
  let dn = rname dreg in
  (match c with
  | Bor_isa.Instr.Lt -> line ctx "slt %s, %s, %s" dn (rname ra) (rname rb)
  | Bor_isa.Instr.Ltu -> line ctx "sltu %s, %s, %s" dn (rname ra) (rname rb)
  | Bor_isa.Instr.Ge ->
    line ctx "slt %s, %s, %s" dn (rname ra) (rname rb);
    line ctx "xori %s, %s, 1" dn dn
  | Bor_isa.Instr.Geu ->
    line ctx "sltu %s, %s, %s" dn (rname ra) (rname rb);
    line ctx "xori %s, %s, 1" dn dn
  | Bor_isa.Instr.Eq ->
    line ctx "xor %s, %s, %s" dn (rname ra) (rname rb);
    line ctx "sltiu %s, %s, 1" dn dn
  | Bor_isa.Instr.Ne ->
    line ctx "xor %s, %s, %s" dn (rname ra) (rname rb);
    line ctx "sltu %s, zero, %s" dn dn);
  finish ()

let emit_addr ctx d sym =
  let dreg, finish = write_vreg ctx sc3 d in
  (match sym with
  | Ir.Global name -> line ctx "la %s, %s" (rname dreg) name
  | Ir.Frame slot ->
    line ctx "addi %s, sp, %d" (rname dreg) ctx.frame.array_off.(slot));
  finish ()

let mem_mnemonic w load =
  match (w, load) with
  | Bor_isa.Instr.Word, true -> "lw"
  | Bor_isa.Instr.Word, false -> "sw"
  | Bor_isa.Instr.Byte, true -> "lb"
  | Bor_isa.Instr.Byte, false -> "sb"

let emit_inst ctx = function
  | Ir.Bin (op, d, a, b) -> emit_bin ctx op d a b
  | Ir.Set_cond (c, d, a, b) -> emit_set_cond ctx c d a b
  | Ir.Addr (d, sym) -> emit_addr ctx d sym
  | Ir.Load (w, d, base, off) ->
    let dreg, finish = write_vreg ctx sc3 d in
    let rb = read_operand ctx sc1 base in
    line ctx "%s %s, %d(%s)" (mem_mnemonic w true) (rname dreg) off (rname rb);
    finish ()
  | Ir.Store (w, v, base, off) ->
    let rv = read_operand ctx sc1 v in
    let rb = read_operand ctx sc2 base in
    line ctx "%s %s, %d(%s)" (mem_mnemonic w false) (rname rv) off (rname rb)
  | Ir.Load_global (w, d, sym, off) ->
    let dreg, finish = write_vreg ctx sc3 d in
    line ctx "%s %s, %s+%d(gp)" (mem_mnemonic w true) (rname dreg) sym off;
    finish ()
  | Ir.Store_global (w, v, sym, off) ->
    let rv = read_operand ctx sc1 v in
    line ctx "%s %s, %s+%d(gp)" (mem_mnemonic w false) (rname rv) sym off
  | Ir.Call (name, args, ret) ->
    List.iteri
      (fun i arg ->
        let areg = Bor_isa.Reg.a i in
        match arg with
        | Ir.Imm v -> line ctx "li %s, %d" (rname areg) v
        | Ir.Vr v -> (
          match loc ctx v with
          | Regalloc.Preg r -> line ctx "mv %s, %s" (rname areg) (rname r)
          | Regalloc.Spill s ->
            line ctx "lw %s, %d(sp)" (rname areg) (spill_addr ctx s)))
      args;
    line ctx "jal f_%s" name;
    (match ret with
    | None -> ()
    | Some d -> (
      match loc ctx d with
      | Regalloc.Preg r -> line ctx "mv %s, a0" (rname r)
      | Regalloc.Spill s -> line ctx "sw a0, %d(sp)" (spill_addr ctx s)))
  | Ir.Marker n -> line ctx "marker %d" n

let cond_mnemonic : Bor_isa.Instr.cond -> string = function
  | Bor_isa.Instr.Eq -> "beq"
  | Bor_isa.Instr.Ne -> "bne"
  | Bor_isa.Instr.Lt -> "blt"
  | Bor_isa.Instr.Ge -> "bge"
  | Bor_isa.Instr.Ltu -> "bltu"
  | Bor_isa.Instr.Geu -> "bgeu"

let negate_cond : Bor_isa.Instr.cond -> Bor_isa.Instr.cond = function
  | Bor_isa.Instr.Eq -> Bor_isa.Instr.Ne
  | Bor_isa.Instr.Ne -> Bor_isa.Instr.Eq
  | Bor_isa.Instr.Lt -> Bor_isa.Instr.Ge
  | Bor_isa.Instr.Ge -> Bor_isa.Instr.Lt
  | Bor_isa.Instr.Ltu -> Bor_isa.Instr.Geu
  | Bor_isa.Instr.Geu -> Bor_isa.Instr.Ltu

let block_label (f : Ir.func) l = Printf.sprintf "%s__L%d" f.Ir.name l

let emit_term ctx ~next = function
  | Ir.Jump l ->
    if next <> Some l then line ctx "j %s" (block_label ctx.f l)
  | Ir.Jump_always l -> line ctx "brra %s" (block_label ctx.f l)
  | Ir.Cond (c, a, b, taken, fall) ->
    let ra = read_operand ctx sc1 a in
    let rb = read_operand ctx sc2 b in
    (* Keep the layout successor on the fall-through path. *)
    if next = Some taken then
      line ctx "%s %s, %s, %s" (cond_mnemonic (negate_cond c)) (rname ra)
        (rname rb) (block_label ctx.f fall)
    else begin
      line ctx "%s %s, %s, %s" (cond_mnemonic c) (rname ra) (rname rb)
        (block_label ctx.f taken);
      if next <> Some fall then line ctx "j %s" (block_label ctx.f fall)
    end
  | Ir.Brr_branch (freq, taken, fall) ->
    line ctx "brr #%d, %s" (Bor_core.Freq.to_field freq)
      (block_label ctx.f taken);
    if next <> Some fall then line ctx "j %s" (block_label ctx.f fall)
  | Ir.Ret o ->
    (match o with
    | Some (Ir.Imm v) -> line ctx "li a0, %d" v
    | Some (Ir.Vr v) -> (
      match loc ctx v with
      | Regalloc.Preg r -> line ctx "mv a0, %s" (rname r)
      | Regalloc.Spill s -> line ctx "lw a0, %d(sp)" (spill_addr ctx s))
    | None -> ());
    line ctx "j %s__epi" ctx.f.Ir.name

let emit_func buf (f : Ir.func) =
  let alloc = Regalloc.allocate f in
  let frame = layout_frame f alloc in
  let ctx = { buf; f; alloc; frame } in
  label ctx "f_%s" f.Ir.name;
  if frame.size > 0 then line ctx "addi sp, sp, -%d" frame.size;
  List.iter
    (fun (r, off) -> line ctx "sw %s, %d(sp)" (rname r) off)
    frame.save_off;
  (* Parameter moves: a_i into the allocated home of vreg i. *)
  List.iteri
    (fun i v ->
      match alloc.locs.(v) with
      | Regalloc.Preg r -> line ctx "mv %s, %s" (rname r) (rname (Bor_isa.Reg.a i))
      | Regalloc.Spill s ->
        line ctx "sw %s, %d(sp)" (rname (Bor_isa.Reg.a i)) (spill_addr ctx s))
    f.Ir.params;
  (* Blocks in layout order; fall-throughs elided when possible. *)
  let order = Array.of_list f.Ir.block_order in
  Array.iteri
    (fun i l ->
      let b = Ir.block f l in
      label ctx "%s" (block_label f l);
      (match b.Ir.site with
      | Some id -> line ctx "site %d" id
      | None -> ());
      List.iter (emit_inst ctx) b.Ir.body;
      let next = if i + 1 < Array.length order then Some order.(i + 1) else None in
      emit_term ctx ~next b.Ir.term)
    order;
  label ctx "%s__epi" f.Ir.name;
  List.iter
    (fun (r, off) -> line ctx "lw %s, %d(sp)" (rname r) off)
    frame.save_off;
  if frame.size > 0 then line ctx "addi sp, sp, %d" frame.size;
  line ctx "ret"

(* ---------------------------------------------------------- Runtime *)

(* Software signed division/remainder (restoring shift-subtract over
   unsigned magnitudes). C-like semantics matching the reference
   interpreter: truncation toward zero, remainder takes the dividend's
   sign; division by zero is defined as quotient 0 / remainder a; the
   INT_MIN/-1 case wraps. Leaf routines: only caller-saved registers,
   no frame. *)
let division_runtime =
  {|
; runtime: signed division, a0 / a1 -> a0
f___div:
        beq  a1, zero, __rt_div_by_zero
        xor  t6, a0, a1       ; quotient sign in bit 31
        jal  t7, __rt_udiv_setup
        mv   a0, t2           ; |a| / |b|
        bge  t6, zero, __rt_div_done
        sub  a0, zero, a0
__rt_div_done:
        ret
__rt_div_by_zero:
        li   a0, 0
        ret

; runtime: signed remainder, a0 % a1 -> a0
f___mod:
        beq  a1, zero, __rt_mod_done   ; a % 0 = a
        mv   t6, a0           ; remainder sign = dividend sign
        jal  t7, __rt_udiv_setup
        mv   a0, t3           ; |a| % |b|
        bge  t6, zero, __rt_mod_done
        sub  a0, zero, a0
__rt_mod_done:
        ret

; shared core: abs operands then 32-step restoring division.
; in: a0, a1. out: t2 = |a0| / |a1|, t3 = |a0| % |a1|. link in t7.
__rt_udiv_setup:
        mv   t0, a0
        bge  t0, zero, __rt_abs_b
        sub  t0, zero, t0
__rt_abs_b:
        mv   t1, a1
        bge  t1, zero, __rt_udiv
        sub  t1, zero, t1
__rt_udiv:
        li   t2, 0            ; quotient
        li   t3, 0            ; remainder
        li   t4, 32
__rt_udiv_loop:
        slli t3, t3, 1
        srli t5, t0, 31
        or   t3, t3, t5
        slli t0, t0, 1
        slli t2, t2, 1
        bltu t3, t1, __rt_udiv_skip
        sub  t3, t3, t1
        ori  t2, t2, 1
__rt_udiv_skip:
        addi t4, t4, -1
        bne  t4, zero, __rt_udiv_loop
        jalr zero, t7, 0
|}

let uses_division funcs =
  List.exists
    (fun f ->
      let found = ref false in
      Ir.iter_blocks f (fun b ->
          List.iter
            (fun i ->
              match i with
              | Ir.Call (("__div" | "__mod"), _, _) -> found := true
              | _ -> ())
            b.Ir.body);
      !found)
    funcs

(* ------------------------------------------------------------- Data *)

let emit_global buf (g : Ast.global) =
  let put fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  put "        .align 4\n";
  put "%s:\n" g.Ast.gname;
  match (g.Ast.gty, g.Ast.ginit) with
  | (Ast.Tint | Ast.Tchar), None -> put "        .word 0\n"
  | (Ast.Tint | Ast.Tchar), Some [ v ] -> put "        .word %d\n" v
  | (Ast.Tint | Ast.Tchar), Some _ -> assert false (* typechecker *)
  | Ast.Tarray (Ast.Tchar, n), init ->
    let vs = Option.value init ~default:[] in
    List.iter (fun v -> put "        .byte %d\n" v) vs;
    let rem = n - List.length vs in
    if rem > 0 then put "        .space %d\n" rem
  | Ast.Tarray (_, n), init ->
    let vs = Option.value init ~default:[] in
    List.iter (fun v -> put "        .word %d\n" v) vs;
    let rem = n - List.length vs in
    if rem > 0 then put "        .space %d\n" (4 * rem)

let program globals funcs options =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "        .text\n";
  (* Start stub: the ISA-level entry point. *)
  Buffer.add_string buf "main:\n";
  if options.roi_markers then Buffer.add_string buf "        marker 1\n";
  Buffer.add_string buf "        jal f_main\n";
  if options.roi_markers then Buffer.add_string buf "        marker 2\n";
  Buffer.add_string buf "        halt\n";
  List.iter (emit_func buf) funcs;
  if uses_division funcs then Buffer.add_string buf division_runtime;
  Buffer.add_string buf "        .data\n";
  let put fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  (* Runtime globals first: gp-relative accesses need small offsets, and
     user arrays (e.g. a large corpus) can push later symbols far out. *)
  (match options.counter_interval with
  | None -> ()
  | Some interval ->
    put "%s:\n        .word %d\n" Instrument.counter_global (interval - 1);
    put "%s:\n        .word %d\n" Instrument.reset_global interval);
  if options.n_sites > 0 then begin
    put "%s:\n" Instrument.prof_array;
    put "        .space %d\n" (4 * options.n_sites)
  end;
  (* Scalars before arrays, for the same reason. *)
  let scalars, arrays =
    List.partition
      (fun (g : Ast.global) ->
        match g.Ast.gty with
        | Ast.Tint | Ast.Tchar -> true
        | Ast.Tarray _ -> false)
      globals
  in
  List.iter (emit_global buf) scalars;
  List.iter (emit_global buf) arrays;
  Buffer.contents buf
