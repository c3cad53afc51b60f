open Bor_util

let imm_bits_alui = 12
let imm_bits_mem = 16
let offset_bits_branch = 13
let offset_bits_jal = 21
let offset_bits_brr = 22

(* Opcodes, bits [31:26]. *)
let op_alu = 0x01
let op_alui = 0x02
let op_lui = 0x03
let op_lw = 0x04
let op_lb = 0x05
let op_sw = 0x06
let op_sb = 0x07
let op_branch = 0x08
let op_jal = 0x09
let op_jalr = 0x0A
let op_brr = 0x0B
let op_brra = 0x0C
let op_rdlfsr = 0x0D
let op_marker = 0x0E
let op_halt = 0x0F
let op_nop = 0x10
let op_illegal = 0x3F
let illegal_magic = 0x2BAD

let alu_funct : Instr.alu_op -> int = function
  | Add -> 0
  | Sub -> 1
  | And -> 2
  | Or -> 3
  | Xor -> 4
  | Sll -> 5
  | Srl -> 6
  | Sra -> 7
  | Slt -> 8
  | Sltu -> 9
  | Mul -> 10

let alu_of_funct : int -> (Instr.alu_op, string) result = function
  | 0 -> Ok Add
  | 1 -> Ok Sub
  | 2 -> Ok And
  | 3 -> Ok Or
  | 4 -> Ok Xor
  | 5 -> Ok Sll
  | 6 -> Ok Srl
  | 7 -> Ok Sra
  | 8 -> Ok Slt
  | 9 -> Ok Sltu
  | 10 -> Ok Mul
  | f -> Error (Printf.sprintf "bad ALU funct %d" f)

let cond_code : Instr.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Ltu -> 4
  | Geu -> 5

let cond_of_code : int -> (Instr.cond, string) result = function
  | 0 -> Ok Eq
  | 1 -> Ok Ne
  | 2 -> Ok Lt
  | 3 -> Ok Ge
  | 4 -> Ok Ltu
  | 5 -> Ok Geu
  | c -> Error (Printf.sprintf "bad branch condition %d" c)

let ( let* ) = Result.bind

let check_signed what bits v =
  if Bits.fits_signed v ~width:bits then Ok (v land Bits.mask bits)
  else Error (Printf.sprintf "%s %d does not fit %d signed bits" what v bits)

let check_unsigned what bits v =
  if v >= 0 && v <= Bits.mask bits then Ok v
  else Error (Printf.sprintf "%s %d does not fit %d unsigned bits" what v bits)

let with_op op fields = Ok ((op lsl 26) lor fields)
let reg r = Reg.to_int r

let encode (i : Instr.t) =
  match i with
  | Alu (op, rd, rs1, rs2) ->
    with_op op_alu
      ((reg rd lsl 21) lor (reg rs1 lsl 16) lor (reg rs2 lsl 11)
      lor (alu_funct op lsl 7))
  | Alui (op, rd, rs1, imm) ->
    let* imm = check_signed "immediate" imm_bits_alui imm in
    with_op op_alui
      ((reg rd lsl 21) lor (reg rs1 lsl 16) lor (alu_funct op lsl 12) lor imm)
  | Lui (rd, imm) ->
    let* imm = check_unsigned "upper immediate" 20 imm in
    with_op op_lui ((reg rd lsl 21) lor imm)
  | Load (w, rd, rs1, off) ->
    let* off = check_signed "load offset" imm_bits_mem off in
    let op = match w with Instr.Word -> op_lw | Instr.Byte -> op_lb in
    with_op op ((reg rd lsl 21) lor (reg rs1 lsl 16) lor off)
  | Store (w, rsrc, rbase, off) ->
    let* off = check_signed "store offset" imm_bits_mem off in
    let op = match w with Instr.Word -> op_sw | Instr.Byte -> op_sb in
    with_op op ((reg rsrc lsl 21) lor (reg rbase lsl 16) lor off)
  | Branch (c, rs1, rs2, off) ->
    let* off = check_signed "branch offset" offset_bits_branch off in
    with_op op_branch
      ((reg rs1 lsl 21) lor (reg rs2 lsl 16) lor (cond_code c lsl 13) lor off)
  | Jal (rd, off) ->
    let* off = check_signed "jump offset" offset_bits_jal off in
    with_op op_jal ((reg rd lsl 21) lor off)
  | Jalr (rd, rs1, imm) ->
    let* imm = check_signed "jalr offset" imm_bits_mem imm in
    with_op op_jalr ((reg rd lsl 21) lor (reg rs1 lsl 16) lor imm)
  | Brr (f, off) ->
    let* off = check_signed "brr offset" offset_bits_brr off in
    with_op op_brr ((Bor_core.Freq.to_field f lsl 22) lor off)
  | Brr_always off ->
    let* off = check_signed "brra offset" 26 off in
    with_op op_brra off
  | Rdlfsr rd -> with_op op_rdlfsr (reg rd lsl 21)
  | Marker n ->
    let* n = check_unsigned "marker id" 26 n in
    with_op op_marker n
  | Halt -> with_op op_halt 0
  | Nop -> with_op op_nop 0

let encode_exn i =
  match encode i with Ok w -> w | Error e -> invalid_arg ("encode: " ^ e)

let f w ~pos ~len = Bits.extract w ~pos ~len
let sf w ~pos ~len = Bits.sign_extend (Bits.extract w ~pos ~len) ~width:len
let rd_of w = Reg.of_int (f w ~pos:21 ~len:5)
let rs1_of w = Reg.of_int (f w ~pos:16 ~len:5)

let decode w : (Instr.t, string) result =
  let opcode = f w ~pos:26 ~len:6 in
  if opcode = op_alu then
    let* op = alu_of_funct (f w ~pos:7 ~len:4) in
    Ok (Instr.Alu (op, rd_of w, rs1_of w, Reg.of_int (f w ~pos:11 ~len:5)))
  else if opcode = op_alui then
    let* op = alu_of_funct (f w ~pos:12 ~len:4) in
    Ok (Instr.Alui (op, rd_of w, rs1_of w, sf w ~pos:0 ~len:imm_bits_alui))
  else if opcode = op_lui then Ok (Instr.Lui (rd_of w, f w ~pos:0 ~len:20))
  else if opcode = op_lw then
    Ok (Instr.Load (Instr.Word, rd_of w, rs1_of w, sf w ~pos:0 ~len:16))
  else if opcode = op_lb then
    Ok (Instr.Load (Instr.Byte, rd_of w, rs1_of w, sf w ~pos:0 ~len:16))
  else if opcode = op_sw then
    Ok (Instr.Store (Instr.Word, rd_of w, rs1_of w, sf w ~pos:0 ~len:16))
  else if opcode = op_sb then
    Ok (Instr.Store (Instr.Byte, rd_of w, rs1_of w, sf w ~pos:0 ~len:16))
  else if opcode = op_branch then
    let* c = cond_of_code (f w ~pos:13 ~len:3) in
    Ok
      (Instr.Branch
         ( c,
           Reg.of_int (f w ~pos:21 ~len:5),
           Reg.of_int (f w ~pos:16 ~len:5),
           sf w ~pos:0 ~len:offset_bits_branch ))
  else if opcode = op_jal then
    Ok (Instr.Jal (rd_of w, sf w ~pos:0 ~len:offset_bits_jal))
  else if opcode = op_jalr then
    Ok (Instr.Jalr (rd_of w, rs1_of w, sf w ~pos:0 ~len:16))
  else if opcode = op_brr then
    Ok
      (Instr.Brr
         ( Bor_core.Freq.of_field (f w ~pos:22 ~len:4),
           sf w ~pos:0 ~len:offset_bits_brr ))
  else if opcode = op_brra then Ok (Instr.Brr_always (sf w ~pos:0 ~len:26))
  else if opcode = op_rdlfsr then Ok (Instr.Rdlfsr (rd_of w))
  else if opcode = op_marker then Ok (Instr.Marker (f w ~pos:0 ~len:26))
  else if opcode = op_halt then Ok Instr.Halt
  else if opcode = op_nop then Ok Instr.Nop
  else Error (Printf.sprintf "illegal opcode 0x%02x" opcode)

let offset_bits_illegal_brr = 18
let illegal_magic = illegal_magic land Bits.mask 4

let illegal_brr_word freq ~offset =
  let* off = check_signed "brr offset" offset_bits_illegal_brr offset in
  Ok
    ((op_illegal lsl 26)
    lor (illegal_magic lsl 22)
    lor (Bor_core.Freq.to_field freq lsl 18)
    lor off)

let decode_illegal_brr w =
  if f w ~pos:26 ~len:6 = op_illegal && f w ~pos:22 ~len:4 = illegal_magic
  then
    Some
      ( Bor_core.Freq.of_field (f w ~pos:18 ~len:4),
        sf w ~pos:0 ~len:offset_bits_illegal_brr )
  else None
