(* Tests for Bor_isa: registers, instruction classification, binary
   encoding round trips and the assembler. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let instr = Alcotest.testable Bor_isa.Instr.pp ( = )

(* ----------------------------------------------------------------- Reg *)

let test_reg_names_roundtrip () =
  for i = 0 to 31 do
    let r = Bor_isa.Reg.of_int i in
    check
      Alcotest.(option int)
      (Bor_isa.Reg.name r)
      (Some i)
      (Option.map Bor_isa.Reg.to_int (Bor_isa.Reg.of_name (Bor_isa.Reg.name r)))
  done

let test_reg_raw_names () =
  check
    Alcotest.(option int)
    "r17" (Some 17)
    (Option.map Bor_isa.Reg.to_int (Bor_isa.Reg.of_name "r17"));
  check Alcotest.(option int) "bogus" None
    (Option.map Bor_isa.Reg.to_int (Bor_isa.Reg.of_name "q3"))

let test_reg_abi_split () =
  check Alcotest.int "16 caller-saved" 16
    (List.length Bor_isa.Reg.caller_saved);
  check Alcotest.int "8 callee-saved" 8 (List.length Bor_isa.Reg.callee_saved)

(* --------------------------------------------------------------- Instr *)

let t0 = Bor_isa.Reg.t_ 0
let t1 = Bor_isa.Reg.t_ 1
let a0 = Bor_isa.Reg.a 0
let freq10 = Bor_core.Freq.of_period 1024

let test_control_classes () =
  let open Bor_isa.Instr in
  check Alcotest.bool "branch is back-end" true
    (control (Branch (Eq, t0, t1, 4)) = Cond_branch);
  check Alcotest.bool "brr is front-end" true
    (control (Brr (freq10, 4)) = Front_end_branch);
  check Alcotest.bool "brra is front-end" true
    (control (Brr_always 4) = Front_end_branch);
  check Alcotest.bool "jal is front-end" true
    (control (Jal (Bor_isa.Reg.ra, 4)) = Front_end_branch);
  check Alcotest.bool "jalr is indirect" true
    (control (Jalr (Bor_isa.Reg.zero, Bor_isa.Reg.ra, 0)) = Indirect);
  check Alcotest.bool "alu is not control" true
    (control (Alu (Add, t0, t0, t1)) = Not_control)

let test_dest_sources () =
  let open Bor_isa.Instr in
  check
    Alcotest.(option int)
    "alu dest" (Some 8)
    (Option.map Bor_isa.Reg.to_int (dest (Alu (Add, t0, t1, a0))));
  check Alcotest.(option int) "zero dest hidden" None
    (Option.map Bor_isa.Reg.to_int (dest (Alui (Add, Bor_isa.Reg.zero, t0, 1))));
  check
    Alcotest.(list int)
    "store sources" [ 8; 9 ]
    (List.map Bor_isa.Reg.to_int (sources (Store (Word, t0, t1, 0))));
  check Alcotest.(list int) "brr reads nothing" []
    (List.map Bor_isa.Reg.to_int (sources (Brr (freq10, 8))))

let test_eval_alu () =
  let open Bor_isa.Instr in
  check Alcotest.int "add wraps" (-2147483648)
    (eval_alu Add 2147483647 1);
  check Alcotest.int "sub" 5 (eval_alu Sub 12 7);
  check Alcotest.int "sll" 64 (eval_alu Sll 1 6);
  check Alcotest.int "srl of negative is logical" 1
    (eval_alu Srl (-2147483648) 31);
  check Alcotest.int "sra of negative keeps sign" (-1)
    (eval_alu Sra (-2147483648) 31);
  check Alcotest.int "slt signed" 1 (eval_alu Slt (-1) 0);
  check Alcotest.int "sltu unsigned" 0 (eval_alu Sltu (-1) 0)

let test_eval_cond () =
  let open Bor_isa.Instr in
  check Alcotest.bool "lt signed" true (eval_cond Lt (-5) 3);
  check Alcotest.bool "ltu treats -5 as big" false (eval_cond Ltu (-5) 3);
  check Alcotest.bool "geu" true (eval_cond Geu (-5) 3);
  check Alcotest.bool "eq" true (eval_cond Eq 7 7)

(* ------------------------------------------------------------- Encoding *)

let sample_instrs =
  let open Bor_isa.Instr in
  [
    Alu (Add, t0, t1, a0);
    Alu (Mul, a0, t0, t1);
    Alui (Xor, t0, t1, -1);
    Alui (Add, t0, t1, 2047);
    Lui (t0, 0xFFFFF);
    Load (Word, t0, t1, -4);
    Load (Byte, a0, Bor_isa.Reg.gp, 32767);
    Store (Word, t0, Bor_isa.Reg.sp, -32768);
    Store (Byte, t1, t0, 0);
    Branch (Eq, t0, t1, -100);
    Branch (Geu, a0, Bor_isa.Reg.zero, 4095);
    Jal (Bor_isa.Reg.ra, -1000);
    Jal (Bor_isa.Reg.zero, 1 lsl 19);
    Jalr (Bor_isa.Reg.zero, Bor_isa.Reg.ra, 0);
    Brr (freq10, 2000);
    Brr (Bor_core.Freq.of_field 0, -1);
    Brr (Bor_core.Freq.of_field 15, 0);
    Brr_always (-123456);
    Rdlfsr t0;
    Marker 0x3FFFFFF;
    Halt;
    Nop;
  ]

let test_encode_decode_samples () =
  List.iter
    (fun i ->
      match Bor_isa.Encoding.encode i with
      | Error e -> Alcotest.failf "encode %a: %s" Bor_isa.Instr.pp i e
      | Ok w -> (
        match Bor_isa.Encoding.decode w with
        | Error e -> Alcotest.failf "decode %a: %s" Bor_isa.Instr.pp i e
        | Ok i' -> check instr "roundtrip" i i'))
    sample_instrs

let test_encode_range_errors () =
  let open Bor_isa.Instr in
  let bad i =
    match Bor_isa.Encoding.encode i with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "alui imm too big" true (bad (Alui (Add, t0, t1, 2048)));
  check Alcotest.bool "branch offset too big" true
    (bad (Branch (Eq, t0, t1, 4096)));
  check Alcotest.bool "marker negative" true (bad (Marker (-1)))

let test_illegal_brr_form () =
  let w =
    Result.get_ok (Bor_isa.Encoding.illegal_brr_word freq10 ~offset:(-42))
  in
  (match Bor_isa.Encoding.decode w with
  | Error _ -> ()
  | Ok i -> Alcotest.failf "decoded as %a" Bor_isa.Instr.pp i);
  match Bor_isa.Encoding.decode_illegal_brr w with
  | Some (f, off) ->
    check Alcotest.int "freq preserved" 9 (Bor_core.Freq.to_field f);
    check Alcotest.int "offset preserved" (-42) off
  | None -> Alcotest.fail "not recognised"

let gen_reg = QCheck.Gen.map Bor_isa.Reg.of_int (QCheck.Gen.int_range 0 31)

let gen_instr : Bor_isa.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Bor_isa.Instr in
  let alu_op =
    oneofl [ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu; Mul ]
  in
  let cond = oneofl [ Eq; Ne; Lt; Ge; Ltu; Geu ] in
  let width = oneofl [ Byte; Word ] in
  let imm12 = int_range (-2048) 2047 in
  let imm16 = int_range (-32768) 32767 in
  let off13 = int_range (-4096) 4095 in
  let off21 = int_range (-(1 lsl 20)) ((1 lsl 20) - 1) in
  let off22 = int_range (-(1 lsl 21)) ((1 lsl 21) - 1) in
  let freq = map Bor_core.Freq.of_field (int_range 0 15) in
  oneof
    [
      map3 (fun op (a, b) c -> Alu (op, a, b, c)) alu_op (pair gen_reg gen_reg)
        gen_reg;
      map3 (fun op (a, b) i -> Alui (op, a, b, i)) alu_op
        (pair gen_reg gen_reg) imm12;
      map2 (fun r i -> Lui (r, i)) gen_reg (int_range 0 0xFFFFF);
      map3 (fun w (a, b) i -> Load (w, a, b, i)) width (pair gen_reg gen_reg)
        imm16;
      map3 (fun w (a, b) i -> Store (w, a, b, i)) width (pair gen_reg gen_reg)
        imm16;
      map3
        (fun c (a, b) o -> Branch (c, a, b, o))
        cond (pair gen_reg gen_reg) off13;
      map2 (fun r o -> Jal (r, o)) gen_reg off21;
      map3 (fun a b i -> Jalr (a, b, i)) gen_reg gen_reg imm16;
      map2 (fun f o -> Brr (f, o)) freq off22;
      map (fun o -> Brr_always o) (int_range (-(1 lsl 25)) ((1 lsl 25) - 1));
      map (fun r -> Rdlfsr r) gen_reg;
      map (fun n -> Marker n) (int_range 0 ((1 lsl 26) - 1));
      return Halt;
      return Nop;
    ]

let arb_instr = QCheck.make ~print:Bor_isa.Instr.to_string gen_instr

let prop_encode_decode =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arb_instr
    (fun i ->
      match Bor_isa.Encoding.encode i with
      | Error _ -> QCheck.assume_fail ()
      | Ok w -> (
        match Bor_isa.Encoding.decode w with
        | Error _ -> false
        | Ok i' -> i = i'))

let prop_encode_is_32bit =
  QCheck.Test.make ~name:"encodings fit 32 bits" ~count:1000 arb_instr
    (fun i ->
      match Bor_isa.Encoding.encode i with
      | Error _ -> QCheck.assume_fail ()
      | Ok w -> w >= 0 && w <= 0xFFFFFFFF)

(* ----------------------------------------------------------------- Asm *)

let assemble_ok src =
  match Bor_isa.Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Bor_isa.Asm.pp_error e

let test_asm_basic () =
  let p =
    assemble_ok
      {|
        .text
main:   addi t0, zero, 5
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
      |}
  in
  check Alcotest.int "four instructions" 4 (Bor_isa.Program.instr_count p);
  check instr "backward branch"
    (Bor_isa.Instr.Branch (Bor_isa.Instr.Ne, t0, Bor_isa.Reg.zero, -1))
    p.text.(2)

let test_asm_brr_forms () =
  let p =
    assemble_ok
      {|
main:   brr 1/1024, target
        brr #0, target
        brra target
target: halt
      |}
  in
  check instr "period form"
    (Bor_isa.Instr.Brr (freq10, 3))
    p.text.(0);
  check instr "raw field form"
    (Bor_isa.Instr.Brr (Bor_core.Freq.of_field 0, 2))
    p.text.(1);
  check instr "always form" (Bor_isa.Instr.Brr_always 1) p.text.(2)

let test_asm_pseudos () =
  let p =
    assemble_ok
      {|
main:   li  t0, 100000
        li  t1, 7
        mv  a0, t0
        not a0, a0
        neg a0, a0
        j   out
        call main
        ret
out:    halt
      |}
  in
  (* li big expands to lui+addi, li small to one addi. *)
  check Alcotest.int "expansion sizes" 10 (Bor_isa.Program.instr_count p);
  check instr "small li"
    (Bor_isa.Instr.Alui (Bor_isa.Instr.Add, t1, Bor_isa.Reg.zero, 7))
    p.text.(2)

let test_asm_li_value () =
  (* Check the lui/addi split reconstructs the constant. *)
  List.iter
    (fun v ->
      let p =
        assemble_ok (Printf.sprintf "main: li a0, %d\n halt" v)
      in
      let m = Bor_sim.Machine.create p in
      (match Bor_sim.Machine.run m with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      check Alcotest.int
        (Printf.sprintf "li %d" v)
        v
        (Bor_sim.Machine.reg m a0))
    [ 0; 7; -7; 2047; 2048; -2048; -2049; 100000; -100000; 0x7FFFF000 ]

let test_asm_data_and_la () =
  let p =
    assemble_ok
      {|
        .text
main:   la   t0, numbers
        lw   a0, 4(t0)
        halt
        .data
numbers: .word 10, 20, 30
str:    .ascii "hi\n"
        .align 4
after:  .word numbers
      |}
  in
  let m = Bor_sim.Machine.create p in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "loaded numbers[1]" 20 (Bor_sim.Machine.reg m a0);
  match Bor_isa.Program.find_symbol p "after" with
  | None -> Alcotest.fail "missing symbol"
  | Some addr ->
    check Alcotest.int "word sym resolves"
      (Option.get (Bor_isa.Program.find_symbol p "numbers"))
      (Bor_sim.Memory.read_word (Bor_sim.Machine.memory m) addr)

let test_asm_sites () =
  let p =
    assemble_ok
      {|
main:   nop
        site 7
        nop
        halt
      |}
  in
  check Alcotest.int "one site" 1 (List.length p.sites);
  let addr = Bor_isa.Program.default_text_base + 4 in
  check Alcotest.(option int) "site on second instr" (Some 7)
    (Bor_isa.Program.site_at p addr)

let test_asm_errors () =
  let err src =
    match Bor_isa.Asm.assemble src with
    | Ok _ -> Alcotest.fail "expected failure"
    | Error e -> e.Bor_isa.Asm.line
  in
  check Alcotest.int "undefined symbol" 1 (err "main: j nowhere");
  check Alcotest.int "bad mnemonic" 2 (err "main: nop\n frobnicate t0");
  check Alcotest.int "duplicate label" 2 (err "a: nop\na: nop");
  check Alcotest.int "bad freq" 1 (err "main: brr 1/1000, main");
  check Alcotest.int "imm too wide" 1 (err "main: addi t0, t0, 99999")

let test_asm_comment_handling () =
  let p = assemble_ok "main: nop ; comment with, commas : and colons\nhalt" in
  check Alcotest.int "two instrs" 2 (Bor_isa.Program.instr_count p)

let test_disasm_listing () =
  let p = assemble_ok "main: brr 1/2, main\n halt" in
  let listing = Format.asprintf "%a" Bor_isa.Program.pp_listing p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions brr" true (contains "brr 1/2" listing);
  check Alcotest.bool "has main label" true (contains "main:" listing)

let test_asm_branch_pseudos () =
  let p =
    assemble_ok
      {|
main:   li  t0, 5
        li  t1, 3
        bgt t0, t1, a
        halt
a:      ble t1, t0, b
        halt
b:      li  t2, -1
        bgtu t2, t0, c     ; unsigned: -1 is huge
        halt
c:      bleu t0, t2, ok
        halt
ok:     li  a0, 99
        halt
      |}
  in
  let m = Bor_sim.Machine.create p in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "all four pseudo-branches taken" 99
    (Bor_sim.Machine.reg m (Bor_isa.Reg.a 0))

let test_asm_gp_relative () =
  let p =
    assemble_ok
      {|
        .text
main:   lw   a0, counter(gp)
        addi a0, a0, 1
        sw   a0, counter(gp)
        lw   a1, table+8(gp)
        halt
        .data
counter: .word 41
table:  .word 5, 6, 7
      |}
  in
  let m = Bor_sim.Machine.create p in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "counter incremented via gp" 42
    (Bor_sim.Machine.reg m (Bor_isa.Reg.a 0));
  check Alcotest.int "indexed symbolic offset" 7
    (Bor_sim.Machine.reg m (Bor_isa.Reg.a 1))

let test_asm_gp_relative_requires_gp () =
  match Bor_isa.Asm.assemble "main: lw a0, counter(sp)\n halt\n .data\ncounter: .word 1" with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error e ->
    check Alcotest.bool "mentions gp" true
      (let m = e.Bor_isa.Asm.message in
       String.length m > 0)

(* -------------------------------------------------------------- Objfile *)

let obj_source =
  {|
        .text
main:   la   t0, data
        lw   a0, 4(t0)
        site 3
        brr  1/1024, out
        halt
out:    brra main
        .data
data:   .word 10, 20, 30
msg:    .ascii "hello"
|}

let test_objfile_roundtrip () =
  let p = assemble_ok obj_source in
  match Bor_isa.Objfile.load (Bor_isa.Objfile.save p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    check Alcotest.int "text base" p.text_base p'.text_base;
    check Alcotest.int "entry" p.entry p'.entry;
    check Alcotest.int "instr count" (Array.length p.text)
      (Array.length p'.text);
    Array.iteri
      (fun i ins -> check instr (Printf.sprintf "instr %d" i) ins p'.text.(i))
      p.text;
    check Alcotest.bool "data" true (Bytes.equal p.data p'.data);
    check
      Alcotest.(list (pair string int))
      "symbols"
      (List.sort compare p.symbols)
      (List.sort compare p'.symbols);
    check Alcotest.(list (pair int int)) "sites" p.sites p'.sites

let test_objfile_executes_identically () =
  let p = assemble_ok obj_source in
  let p' = Result.get_ok (Bor_isa.Objfile.load (Bor_isa.Objfile.save p)) in
  let run prog =
    let m = Bor_sim.Machine.create prog in
    ignore (Bor_sim.Machine.run ~max_steps:1000 m);
    Bor_sim.Machine.reg m (Bor_isa.Reg.a 0)
  in
  check Alcotest.int "same result" (run p) (run p')

let test_objfile_rejections () =
  let p = assemble_ok obj_source in
  let img = Bor_isa.Objfile.save p in
  let is_err = function Error _ -> true | Ok _ -> false in
  check Alcotest.bool "bad magic" true
    (is_err (Bor_isa.Objfile.load ("XXXX" ^ String.sub img 4 (String.length img - 4))));
  check Alcotest.bool "truncated" true
    (is_err (Bor_isa.Objfile.load (String.sub img 0 (String.length img - 3))));
  check Alcotest.bool "trailing garbage" true
    (is_err (Bor_isa.Objfile.load (img ^ "zz")));
  check Alcotest.bool "detects images" true (Bor_isa.Objfile.is_object_file img);
  check Alcotest.bool "rejects source" false
    (Bor_isa.Objfile.is_object_file obj_source)

(* ----------------------------------------------------------- Toolchain *)

(* The shared front door both [bor] and the bench runner load inputs
   through: content sniffing (BOR1 image vs assembly source), rendered
   errors, and the file-reading composition. *)

let with_probe_file contents f =
  let path = "toolchain_probe.tmp" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_toolchain_dispatch () =
  let from_src = Result.get_ok (Bor_isa.Toolchain.load_program obj_source) in
  let img = Bor_isa.Objfile.save from_src in
  let from_img = Result.get_ok (Bor_isa.Toolchain.load_program img) in
  check Alcotest.int "same text length"
    (Array.length from_src.Bor_isa.Program.text)
    (Array.length from_img.Bor_isa.Program.text);
  check Alcotest.int "same entry" from_src.entry from_img.entry;
  Array.iteri
    (fun i ins -> check instr (Printf.sprintf "instr %d" i) ins
        from_img.text.(i))
    from_src.text

let test_toolchain_renders_errors () =
  (* Assembly errors come back already rendered with the line number;
     corrupt object images also surface as [Error], not exceptions. *)
  (match Bor_isa.Toolchain.load_program "main:   bogus t0, 1\n" with
  | Ok _ -> Alcotest.fail "nonsense assembled"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "%S carries the line number" e)
      true
      (String.length e > 0
      && String.sub e 0 (min 4 (String.length e)) = "line"));
  let img = Bor_isa.Objfile.save (assemble_ok obj_source) in
  let corrupt = String.sub img 0 (String.length img - 2) in
  match Bor_isa.Toolchain.load_program corrupt with
  | Ok _ -> Alcotest.fail "corrupt image loaded"
  | Error _ -> ()

let test_toolchain_file_roundtrip () =
  with_probe_file obj_source (fun path ->
      let p =
        match Bor_isa.Toolchain.load_program_file path with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      check Alcotest.int "entry from source file"
        (assemble_ok obj_source).entry p.Bor_isa.Program.entry);
  let img = Bor_isa.Objfile.save (assemble_ok obj_source) in
  with_probe_file img (fun path ->
      check Alcotest.string "read_file is binary-safe" img
        (Bor_isa.Toolchain.read_file path);
      match Bor_isa.Toolchain.load_program_file path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_toolchain_missing_file () =
  match Bor_isa.Toolchain.load_program_file "no/such/file.s" with
  | Ok _ -> Alcotest.fail "phantom file loaded"
  | Error e -> check Alcotest.bool "message non-empty" true (String.length e > 0)

let () =
  Alcotest.run "bor_isa"
    [
      ( "reg",
        [
          Alcotest.test_case "name roundtrip" `Quick test_reg_names_roundtrip;
          Alcotest.test_case "raw names" `Quick test_reg_raw_names;
          Alcotest.test_case "abi split" `Quick test_reg_abi_split;
        ] );
      ( "instr",
        [
          Alcotest.test_case "control classes" `Quick test_control_classes;
          Alcotest.test_case "dest/sources" `Quick test_dest_sources;
          Alcotest.test_case "alu semantics" `Quick test_eval_alu;
          Alcotest.test_case "cond semantics" `Quick test_eval_cond;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "sample roundtrips" `Quick
            test_encode_decode_samples;
          Alcotest.test_case "range errors" `Quick test_encode_range_errors;
          Alcotest.test_case "illegal-brr form" `Quick test_illegal_brr_form;
          qtest prop_encode_decode;
          qtest prop_encode_is_32bit;
        ] );
      ( "objfile",
        [
          Alcotest.test_case "roundtrip" `Quick test_objfile_roundtrip;
          Alcotest.test_case "executes identically" `Quick
            test_objfile_executes_identically;
          Alcotest.test_case "rejections" `Quick test_objfile_rejections;
        ] );
      ( "asm",
        [
          Alcotest.test_case "basic" `Quick test_asm_basic;
          Alcotest.test_case "brr forms" `Quick test_asm_brr_forms;
          Alcotest.test_case "pseudo-instructions" `Quick test_asm_pseudos;
          Alcotest.test_case "li values" `Quick test_asm_li_value;
          Alcotest.test_case "data and la" `Quick test_asm_data_and_la;
          Alcotest.test_case "site directive" `Quick test_asm_sites;
          Alcotest.test_case "errors with line numbers" `Quick test_asm_errors;
          Alcotest.test_case "comments" `Quick test_asm_comment_handling;
          Alcotest.test_case "branch pseudo-instructions" `Quick
            test_asm_branch_pseudos;
          Alcotest.test_case "gp-relative addressing" `Quick
            test_asm_gp_relative;
          Alcotest.test_case "gp-relative base check" `Quick
            test_asm_gp_relative_requires_gp;
          Alcotest.test_case "listing" `Quick test_disasm_listing;
        ] );
      ( "toolchain",
        [
          Alcotest.test_case "source/image dispatch" `Quick
            test_toolchain_dispatch;
          Alcotest.test_case "renders errors" `Quick
            test_toolchain_renders_errors;
          Alcotest.test_case "file roundtrip" `Quick
            test_toolchain_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_toolchain_missing_file;
        ] );
    ]
