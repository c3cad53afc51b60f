type alu_op = Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul
type cond = Eq | Ne | Lt | Ge | Ltu | Geu
type width = Byte | Word

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Load of width * Reg.t * Reg.t * int
  | Store of width * Reg.t * Reg.t * int
  | Branch of cond * Reg.t * Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Brr of Bor_core.Freq.t * int
  | Brr_always of int
  | Rdlfsr of Reg.t
  | Marker of int
  | Halt
  | Nop

type control = Not_control | Cond_branch | Front_end_branch | Indirect

let control = function
  | Branch _ -> Cond_branch
  | Jal _ | Brr _ | Brr_always _ -> Front_end_branch
  | Jalr _ -> Indirect
  | Alu _ | Alui _ | Lui _ | Load _ | Store _ | Rdlfsr _ | Marker _ | Halt
  | Nop ->
    Not_control

let dest i =
  let some r = if Reg.equal r Reg.zero then None else Some r in
  match i with
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _) | Load (_, rd, _, _)
  | Jal (rd, _)
  | Jalr (rd, _, _)
  | Rdlfsr rd ->
    some rd
  | Store _ | Branch _ | Brr _ | Brr_always _ | Marker _ | Halt | Nop -> None

let sources i =
  let regs =
    match i with
    | Alu (_, _, rs1, rs2) | Branch (_, rs1, rs2, _) -> [ rs1; rs2 ]
    | Alui (_, _, rs1, _) | Load (_, _, rs1, _) | Jalr (_, rs1, _) -> [ rs1 ]
    | Store (_, rsrc, rbase, _) -> [ rsrc; rbase ]
    | Lui _ | Jal _ | Brr _ | Brr_always _ | Rdlfsr _ | Marker _ | Halt | Nop
      ->
      []
  in
  List.filter (fun r -> not (Reg.equal r Reg.zero)) regs

let branch_offset = function
  | Branch (_, _, _, off) | Jal (_, off) | Brr (_, off) | Brr_always off ->
    Some off
  | Alu _ | Alui _ | Lui _ | Load _ | Store _ | Jalr _ | Rdlfsr _ | Marker _
  | Halt | Nop ->
    None

let eval_cond c a b =
  let open Bor_util.Bits in
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Ltu -> to_u32 a < to_u32 b
  | Geu -> to_u32 a >= to_u32 b

let eval_alu op a b =
  let open Bor_util.Bits in
  let sh = b land 31 in
  let v =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Sll -> to_u32 a lsl sh
    | Srl -> to_u32 a lsr sh
    | Sra -> a asr sh
    | Slt -> if a < b then 1 else 0
    | Sltu -> if to_u32 a < to_u32 b then 1 else 0
    | Mul -> a * b
  in
  wrap32 v

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"
  | Mul -> "mul"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Geu -> "geu"

let pp ppf i =
  let r = Reg.name in
  match i with
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf ppf "%si %s, %s, %d" (alu_name op) (r rd) (r rs1) imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, 0x%x" (r rd) imm
  | Load (Word, rd, rs1, off) ->
    Format.fprintf ppf "lw %s, %d(%s)" (r rd) off (r rs1)
  | Load (Byte, rd, rs1, off) ->
    Format.fprintf ppf "lb %s, %d(%s)" (r rd) off (r rs1)
  | Store (Word, rsrc, rbase, off) ->
    Format.fprintf ppf "sw %s, %d(%s)" (r rsrc) off (r rbase)
  | Store (Byte, rsrc, rbase, off) ->
    Format.fprintf ppf "sb %s, %d(%s)" (r rsrc) off (r rbase)
  | Branch (c, rs1, rs2, off) ->
    Format.fprintf ppf "b%s %s, %s, %d" (cond_name c) (r rs1) (r rs2) off
  | Jal (rd, off) -> Format.fprintf ppf "jal %s, %d" (r rd) off
  | Jalr (rd, rs1, imm) ->
    Format.fprintf ppf "jalr %s, %s, %d" (r rd) (r rs1) imm
  | Brr (f, off) ->
    Format.fprintf ppf "brr %a, %d" Bor_core.Freq.pp f off
  | Brr_always off -> Format.fprintf ppf "brra %d" off
  | Rdlfsr rd -> Format.fprintf ppf "rdlfsr %s" (r rd)
  | Marker n -> Format.fprintf ppf "marker %d" n
  | Halt -> Format.pp_print_string ppf "halt"
  | Nop -> Format.pp_print_string ppf "nop"

let to_string i = Format.asprintf "%a" pp i
