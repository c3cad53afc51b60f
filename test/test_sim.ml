(* Tests for Bor_sim: memory, architectural execution, branch-on-random
   modes (hardware / trap-emulated / fixed-interval) and hooks. *)

let check = Alcotest.check

let assemble src =
  match Bor_isa.Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Bor_isa.Asm.pp_error e

let run_ok m =
  match Bor_sim.Machine.run m with
  | Ok n -> n
  | Error e -> Alcotest.fail e

let a0 = Bor_isa.Reg.a 0
let a1 = Bor_isa.Reg.a 1

(* -------------------------------------------------------------- Memory *)

let test_memory_rw () =
  let m = Bor_sim.Memory.create ~size:1024 in
  Bor_sim.Memory.write_word m 0 (-1);
  check Alcotest.int "word roundtrip" (-1) (Bor_sim.Memory.read_word m 0);
  Bor_sim.Memory.write_byte m 100 0x180;
  check Alcotest.int "byte truncates" 0x80 (Bor_sim.Memory.read_byte m 100);
  Bor_sim.Memory.write_word m 4 0x11223344;
  check Alcotest.int "little endian" 0x44 (Bor_sim.Memory.read_byte m 4)

let test_memory_faults () =
  let m = Bor_sim.Memory.create ~size:64 in
  let faults f = try f (); false with Bor_sim.Memory.Fault _ -> true in
  check Alcotest.bool "oob read" true
    (faults (fun () -> ignore (Bor_sim.Memory.read_word m 64)));
  check Alcotest.bool "negative" true
    (faults (fun () -> ignore (Bor_sim.Memory.read_byte m (-1))));
  check Alcotest.bool "misaligned" true
    (faults (fun () -> ignore (Bor_sim.Memory.read_word m 2)))

(* A cleared memory is indistinguishable from a fresh one, whatever
   wrote to it: word and byte stores, a segment load and a snapshot
   restore are all undone, and the dirty bitmap starts empty again. *)
let test_memory_clear () =
  let module M = Bor_sim.Memory in
  let page = M.page_bytes in
  let size = 16 * page in
  let dirty_pages m =
    Array.to_list (Array.map fst (M.snapshot_pages (M.snapshot m)))
  in
  let src = M.create ~size in
  M.write_word src (9 * page) 0x5a5a5a5a;
  let m = M.create ~size in
  M.restore m (M.snapshot src);
  M.write_word m (page + 4) (-1);
  M.write_byte m ((4 * page) - 1) 0xff;
  M.load_segment m ~base:((5 * page) + 100) (Bytes.make page '\x77');
  check Alcotest.(list int) "pages dirtied" [ 1; 3; 5; 6; 9 ] (dirty_pages m);
  M.clear m;
  let fresh = M.create ~size in
  for addr = 0 to size - 1 do
    if M.read_byte m addr <> M.read_byte fresh addr then
      Alcotest.failf "byte 0x%x not scrubbed" addr
  done;
  check Alcotest.(list int) "no dirty pages" [] (dirty_pages m);
  M.write_byte m 10 1;
  check Alcotest.(list int) "tracking resumes" [ 0 ] (dirty_pages m)

(* The page-by-page scrub, snapshot and restore [Memory] used before its
   dirty-page walker, kept as the reference the walker must match: a
   byte image plus one dirty flag per page, every page tested in turn. *)
module Ref_memory = struct
  let page = Bor_sim.Memory.page_bytes

  type t = { bytes : Bytes.t; dirty : bool array }

  let create ~size =
    { bytes = Bytes.make size '\000';
      dirty = Array.make ((size + page - 1) / page) false }

  let write_byte t addr v =
    t.dirty.(addr / page) <- true;
    Bytes.set t.bytes addr (Char.chr (v land 0xff))

  let write_word t addr v =
    for i = 0 to 3 do
      write_byte t (addr + i) (v lsr (8 * i))
    done

  let load_segment t ~base seg =
    Bytes.blit seg 0 t.bytes base (Bytes.length seg);
    if Bytes.length seg > 0 then
      for p = base / page to (base + Bytes.length seg - 1) / page do
        t.dirty.(p) <- true
      done

  let page_len t p = min page (Bytes.length t.bytes - (p * page))

  let zero_dirty_pages t ~keep =
    Array.iteri
      (fun p d ->
        if d && not keep.(p) then
          Bytes.fill t.bytes (p * page) (page_len t p) '\000')
      t.dirty

  let clear t =
    zero_dirty_pages t ~keep:(Array.make (Array.length t.dirty) false);
    Array.fill t.dirty 0 (Array.length t.dirty) false

  let snapshot t =
    let pages = ref [] in
    Array.iteri
      (fun p d ->
        if d then pages := (p, Bytes.sub t.bytes (p * page) (page_len t p)) :: !pages)
      t.dirty;
    (Array.copy t.dirty, List.rev !pages)

  let restore t (dirty, pages) =
    zero_dirty_pages t ~keep:dirty;
    List.iter
      (fun (p, b) -> Bytes.blit b 0 t.bytes (p * page) (Bytes.length b))
      pages;
    Array.blit dirty 0 t.dirty 0 (Array.length dirty)
end

type mem_op =
  | Word of int * int
  | Byte of int * int
  | Segment of int * int * char

(* Stores anywhere in the memory, the last page (short or whole) drawn
   as often as the rest together, and segment loads spanning pages. *)
let gen_mem_ops size =
  let open QCheck.Gen in
  let last = (size - 1) / Bor_sim.Memory.page_bytes * Bor_sim.Memory.page_bytes in
  let addr = frequency [ (1, int_range 0 (size - 1)); (1, int_range last (size - 1)) ] in
  list_size (int_bound 12)
    (frequency
       [
         (3, map2 (fun a v -> Word (a land lnot 3, v)) addr int);
         (3, map2 (fun a v -> Byte (a, v)) addr (int_bound 255));
         ( 1,
           map3
             (fun a len c -> Segment (a, min len (size - a), c))
             addr (int_bound (3 * Bor_sim.Memory.page_bytes)) printable );
       ])

let apply_mem_ops m r =
  List.iter (function
    | Word (a, v) ->
      Bor_sim.Memory.write_word m a v;
      Ref_memory.write_word r a v
    | Byte (a, v) ->
      Bor_sim.Memory.write_byte m a v;
      Ref_memory.write_byte r a v
    | Segment (a, len, c) ->
      Bor_sim.Memory.load_segment m ~base:a (Bytes.make len c);
      Ref_memory.load_segment r ~base:a (Bytes.make len c))

(* Same bytes everywhere, and the same dirty pages with the same
   contents, as the snapshot of each reports them. *)
let same_memory what m r =
  let module M = Bor_sim.Memory in
  for addr = 0 to M.size m - 1 do
    if M.read_byte m addr <> Char.code (Bytes.get r.Ref_memory.bytes addr) then
      QCheck.Test.fail_reportf "%s: byte 0x%x differs" what addr
  done;
  let pages = Array.to_list (M.snapshot_pages (M.snapshot m)) in
  let ref_pages = snd (Ref_memory.snapshot r) in
  if
    List.map fst pages <> List.map fst ref_pages
    || List.map (fun (_, b) -> Bytes.to_string b) pages
       <> List.map (fun (_, b) -> Bytes.to_string b) ref_pages
  then QCheck.Test.fail_reportf "%s: dirty pages differ" what

(* [clear], [snapshot] and [restore] through the dirty-page walker
   agree with the page-by-page reference, on whole-page sizes and on a
   memory whose last page is short and whose bitmap has spare bits. *)
let prop_memory_walker =
  let page = Bor_sim.Memory.page_bytes in
  QCheck.Test.make ~name:"dirty-page walker = page-by-page" ~count:100
    (QCheck.make
       QCheck.Gen.(
         let* size = oneofl [ 8 * page; (21 * page) + 100; 17 * page ] in
         let* before = gen_mem_ops size in
         let* after = gen_mem_ops size in
         let* again = gen_mem_ops size in
         return (size, before, after, again)))
    (fun (size, before, after, again) ->
      let m = Bor_sim.Memory.create ~size and r = Ref_memory.create ~size in
      apply_mem_ops m r before;
      same_memory "after writes" m r;
      let snap = Bor_sim.Memory.snapshot m and ref_snap = Ref_memory.snapshot r in
      apply_mem_ops m r after;
      Bor_sim.Memory.restore m snap;
      Ref_memory.restore r ref_snap;
      same_memory "after restore" m r;
      apply_mem_ops m r again;
      Bor_sim.Memory.clear m;
      Ref_memory.clear r;
      same_memory "after clear" m r;
      true)

(* The scrub runs once per test vector and per oracle run: it must not
   allocate, however many pages it zeroes. *)
let test_memory_clear_allocates_nothing () =
  let module M = Bor_sim.Memory in
  let m = M.create ~size:Bor_sim.Machine.default_mem_size in
  let dirty () =
    List.iter
      (fun a -> M.write_word m a 1)
      [ 0; 5 * M.page_bytes; M.size m - 4 ]
  in
  dirty ();
  M.clear m;
  let words = ref 0. in
  for _ = 1 to 100 do
    dirty ();
    let w0 = Gc.minor_words () in
    M.clear m;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  check (Alcotest.float 0.) "minor words over 100 clears" 0. !words

(* ------------------------------------------------------------- Machine *)

let test_arith_loop () =
  (* sum 1..10 = 55 *)
  let p =
    assemble
      {|
main:   li   a0, 0
        li   t0, 10
loop:   add  a0, a0, t0
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
      |}
  in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  check Alcotest.int "sum" 55 (Bor_sim.Machine.reg m a0)

let test_function_call () =
  let p =
    assemble
      {|
main:   li   a0, 20
        call double
        call double
        halt
double: add  a0, a0, a0
        ret
      |}
  in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  check Alcotest.int "double twice" 80 (Bor_sim.Machine.reg m a0)

let test_memory_program () =
  let p =
    assemble
      {|
        .text
main:   la   t0, arr
        li   t1, 0      ; index
        li   a0, 0      ; sum
loop:   slti t2, t1, 5
        beq  t2, zero, done
        slli t3, t1, 2
        add  t3, t0, t3
        lw   t4, 0(t3)
        add  a0, a0, t4
        addi t1, t1, 1
        j    loop
done:   halt
        .data
arr:    .word 3, 1, 4, 1, 5
      |}
  in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  check Alcotest.int "array sum" 14 (Bor_sim.Machine.reg m a0)

let test_stack_and_bytes () =
  let p =
    assemble
      {|
main:   addi sp, sp, -8
        li   t0, 'A'
        sb   t0, 0(sp)
        lb   a0, 0(sp)
        addi sp, sp, 8
        halt
      |}
  in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  check Alcotest.int "byte via stack" 65 (Bor_sim.Machine.reg m a0)

let test_zero_register_immutable () =
  let p = assemble "main: li t0, 9\n add zero, t0, t0\n mv a0, zero\n halt" in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  check Alcotest.int "zero stays zero" 0 (Bor_sim.Machine.reg m a0)

let test_fetch_fault () =
  let p = assemble "main: j main" in
  (* Overwrite to jump outside: simpler, run budget exhaustion. *)
  let m = Bor_sim.Machine.create p in
  match Bor_sim.Machine.run ~max_steps:100 m with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error e -> check Alcotest.string "budget" "step budget exhausted" e

let test_marker_hook () =
  let p = assemble "main: marker 3\n marker 3\n marker 5\n halt" in
  let m = Bor_sim.Machine.create p in
  let seen = ref [] in
  Bor_sim.Machine.on_marker m (fun n -> seen := n :: !seen);
  ignore (run_ok m);
  check Alcotest.(list int) "markers in order" [ 3; 3; 5 ] (List.rev !seen);
  check Alcotest.int "stat" 3 (Bor_sim.Machine.stats m).markers

let test_site_hook () =
  let p =
    assemble
      {|
main:   li   t0, 4
loop:   site 1
        nop
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
      |}
  in
  let m = Bor_sim.Machine.create p in
  let hits = ref 0 in
  Bor_sim.Machine.on_site m (fun id -> if id = 1 then incr hits);
  ignore (run_ok m);
  check Alcotest.int "site hit per iteration" 4 !hits

(* [Machine.create ~mem] on a memory another program already scribbled
   on (stack and data pages) runs exactly like a fresh machine: the
   reader loads from addresses the scribbler wrote, so any leftover
   byte would show in its registers. *)
let test_reused_memory () =
  let scribbler =
    assemble
      {|
        .text
main:   li   t0, 200
        mv   t1, sp
        la   t2, buf
fill:   addi t1, t1, -4
        sw   t0, 0(t1)
        sb   t0, 0(t2)
        addi t2, t2, 1
        addi t0, t0, -1
        bne  t0, zero, fill
        halt
        .data
buf:    .word 1, 2, 3, 4
      |}
  in
  let reader =
    assemble
      {|
        .text
main:   lw   a0, -4(sp)
        lw   a1, -400(sp)
        la   t0, arr
        lw   a2, 4(t0)
        lb   a3, 100(t0)
        sw   a2, -8(sp)
        sb   a0, 50(t0)
        halt
        .data
arr:    .word 7, 8
      |}
  in
  let mem = Bor_sim.Memory.create ~size:Bor_sim.Machine.default_mem_size in
  ignore (run_ok (Bor_sim.Machine.create ~mem scribbler));
  let reused = Bor_sim.Machine.create ~mem reader in
  check Alcotest.bool "runs on the given memory" true
    (Bor_sim.Machine.memory reused == mem);
  let fresh = Bor_sim.Machine.create reader in
  ignore (run_ok reused);
  ignore (run_ok fresh);
  let regs m =
    List.init Bor_isa.Reg.count (fun i ->
        Bor_sim.Machine.reg m (Bor_isa.Reg.of_int i))
  in
  check Alcotest.(list int) "registers" (regs fresh) (regs reused);
  check Alcotest.int "a2 read the data segment" 8
    (Bor_sim.Machine.reg fresh (Bor_isa.Reg.a 2));
  check Alcotest.bool "stats" true
    (Bor_sim.Machine.stats fresh = Bor_sim.Machine.stats reused);
  let bytes m lo hi =
    let mm = Bor_sim.Machine.memory m in
    String.init (hi - lo) (fun i ->
        Char.chr (Bor_sim.Memory.read_byte mm (lo + i)))
  in
  let db = reader.Bor_isa.Program.data_base in
  let top = Bor_sim.Machine.default_mem_size in
  check Alcotest.string "data pages"
    (bytes fresh db (db + 512))
    (bytes reused db (db + 512));
  check Alcotest.string "stack pages"
    (bytes fresh (top - 1024) top)
    (bytes reused (top - 1024) top);
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Machine.create: ~mem_size disagrees with ~mem")
    (fun () -> ignore (Bor_sim.Machine.create ~mem_size:4096 ~mem reader))

(* ------------------------------------------------- branch-on-random *)

let brr_loop_src =
  {|
main:   li   s0, 0        ; taken counter
        li   s1, 65536    ; iterations
loop:   brr  1/16, hit
back:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
hit:    addi s0, s0, 1
        brra back
      |}

let test_brr_hardware_rate () =
  let p = assemble brr_loop_src in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  let takes = Bor_sim.Machine.reg m (Bor_isa.Reg.s 0) in
  let expected = 65536 / 16 in
  check Alcotest.bool
    (Printf.sprintf "takes %d near %d" takes expected)
    true
    (abs (takes - expected) < 400);
  let st = Bor_sim.Machine.stats m in
  (* brra is also counted as a branch-on-random, always taken. *)
  check Alcotest.int "brr executed = loop + takes" (65536 + takes)
    st.brr_executed;
  check Alcotest.int "no traps in hardware mode" 0 st.traps

let test_brr_trap_emulated_equivalence () =
  (* §3.4: software emulation via invalid opcodes is architecturally
     identical to the hardware mode given the same LFSR seed. *)
  let p = assemble brr_loop_src in
  let seed = 0xBEE in
  let hw =
    Bor_sim.Machine.create
      ~brr_mode:(Bor_sim.Machine.Hardware (Bor_core.Engine.create ~seed ()))
      p
  in
  let trap =
    Bor_sim.Machine.create
      ~brr_mode:
        (Bor_sim.Machine.Trap_emulated (Bor_core.Engine.create ~seed ()))
      p
  in
  ignore (run_ok hw);
  ignore (run_ok trap);
  check Alcotest.int "same take count"
    (Bor_sim.Machine.reg hw (Bor_isa.Reg.s 0))
    (Bor_sim.Machine.reg trap (Bor_isa.Reg.s 0));
  let st = Bor_sim.Machine.stats trap in
  (* One SIGILL per brr execution (brra stays a native instruction). *)
  check Alcotest.int "one trap per brr visit" 65536 st.traps

let test_brr_fixed_interval () =
  let p = assemble brr_loop_src in
  let m = Bor_sim.Machine.create ~brr_mode:Bor_sim.Machine.Fixed_interval p in
  ignore (run_ok m);
  (* Deterministic: exactly every 16th visit is taken. *)
  check Alcotest.int "exact count" (65536 / 16)
    (Bor_sim.Machine.reg m (Bor_isa.Reg.s 0))

let test_rdlfsr () =
  let p = assemble "main: rdlfsr a0\n rdlfsr a1\n halt" in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  (* rdlfsr does not clock the register; both reads see the same value,
     and it is never zero. *)
  check Alcotest.int "stable reads"
    (Bor_sim.Machine.reg m a0)
    (Bor_sim.Machine.reg m a1);
  check Alcotest.bool "non-zero" true (Bor_sim.Machine.reg m a0 <> 0)

let test_brr_always_taken_stat () =
  let p = assemble "main: brra skip\n halt\nskip: halt" in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  let st = Bor_sim.Machine.stats m in
  check Alcotest.int "taken" 1 st.brr_taken;
  check Alcotest.int "2 instrs" 2 st.instructions

let test_stats_categories () =
  let p =
    assemble
      {|
main:   li  t0, 3
l:      lw  t1, 0(gp)
        sw  t1, 4(gp)
        addi t0, t0, -1
        bne t0, zero, l
        halt
      |}
  in
  let m = Bor_sim.Machine.create p in
  ignore (run_ok m);
  let st = Bor_sim.Machine.stats m in
  check Alcotest.int "loads" 3 st.loads;
  check Alcotest.int "stores" 3 st.stores;
  check Alcotest.int "branches" 3 st.cond_branches;
  check Alcotest.int "taken" 2 st.cond_taken

let test_patch_brr_freq () =
  (* Patching the 4-bit field changes the rate mid-run without changing
     anything else; non-brr addresses are rejected. *)
  let p = assemble brr_loop_src in
  let m = Bor_sim.Machine.create p in
  let brr_pc = Bor_isa.Program.default_text_base + (2 * 4) in
  (* Run half at 1/16, then patch to 1/2 and finish. *)
  let half = 120_000 in
  let steps = ref 0 in
  while (not (Bor_sim.Machine.halted m)) && !steps < half do
    Bor_sim.Machine.step m;
    incr steps
  done;
  let takes_before = Bor_sim.Machine.reg m (Bor_isa.Reg.s 0) in
  Bor_sim.Machine.patch_brr_freq m ~pc:brr_pc (Bor_core.Freq.of_field 0);
  ignore (run_ok m);
  let takes = Bor_sim.Machine.reg m (Bor_isa.Reg.s 0) in
  check Alcotest.bool
    (Printf.sprintf "rate jumped after patch (%d before, %d after)"
       takes_before takes)
    true
    (takes > 4 * takes_before);
  Alcotest.check_raises "non-brr rejected"
    (Invalid_argument "Machine.patch_brr_freq: not a branch-on-random")
    (fun () ->
      Bor_sim.Machine.patch_brr_freq m
        ~pc:Bor_isa.Program.default_text_base
        (Bor_core.Freq.of_field 0))

let test_patch_brr_freq_trap_mode () =
  let p = assemble brr_loop_src in
  let m =
    Bor_sim.Machine.create
      ~brr_mode:(Bor_sim.Machine.Trap_emulated (Bor_core.Engine.create ()))
      p
  in
  let brr_pc = Bor_isa.Program.default_text_base + (2 * 4) in
  Bor_sim.Machine.patch_brr_freq m ~pc:brr_pc (Bor_core.Freq.of_field 0);
  ignore (run_ok m);
  let takes = Bor_sim.Machine.reg m (Bor_isa.Reg.s 0) in
  check Alcotest.bool
    (Printf.sprintf "about half taken after patch (%d)" takes)
    true
    (abs (takes - 32768) < 2000)

(* ------------------------------------------------- §3.4 context switch *)

let brr_task_src iterations freq =
  Printf.sprintf
    {|
main:   li   s0, 0
        li   s1, %d
loop:   brr  %s, hit
back:   addi s1, s1, -1
        bne  s1, zero, loop
        mv   a0, s0
        halt
hit:    addi s0, s0, 1
        brra back
|}
    iterations freq

let solo_outcomes src seed =
  let engine = Bor_core.Engine.create ~seed () in
  let outcomes = ref [] in
  let m =
    Bor_sim.Machine.create
      ~brr_mode:
        (Bor_sim.Machine.External
           (fun freq ->
             let o = Bor_core.Engine.decide engine freq in
             outcomes := o :: !outcomes;
             o))
      (assemble src)
  in
  (match Bor_sim.Machine.run m with Ok _ -> () | Error e -> Alcotest.fail e);
  List.rev !outcomes

let test_scheduler_save_restore_isolates_tasks () =
  let src_a = brr_task_src 3000 "1/4" in
  let src_b = brr_task_src 2000 "1/16" in
  let seed_a = 0xAAAAA and seed_b = 0x55555 in
  let sched =
    Bor_sim.Scheduler.create ~quantum:137 ~lfsr_context_switch:true
      ~seeds:[ seed_a; seed_b ]
      ~engine:(Bor_core.Engine.create ())
      [ assemble src_a; assemble src_b ]
  in
  (match Bor_sim.Scheduler.run sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "many switches" true (Bor_sim.Scheduler.switches sched > 10);
  (* Each task's stream equals its solo stream with the same seed. *)
  check
    Alcotest.(list bool)
    "task 0 isolated"
    (solo_outcomes src_a seed_a)
    (Bor_sim.Scheduler.brr_outcomes sched 0);
  check
    Alcotest.(list bool)
    "task 1 isolated"
    (solo_outcomes src_b seed_b)
    (Bor_sim.Scheduler.brr_outcomes sched 1)

let test_scheduler_without_save_restore_interferes () =
  let src = brr_task_src 3000 "1/4" in
  let seed = 0xAAAAA in
  let sched =
    Bor_sim.Scheduler.create ~quantum:137 ~lfsr_context_switch:false
      ~engine:(Bor_core.Engine.create ~seed ())
      [ assemble src; assemble (brr_task_src 2000 "1/16") ]
  in
  (match Bor_sim.Scheduler.run sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let shared = Bor_sim.Scheduler.brr_outcomes sched 0 in
  check Alcotest.bool "stream perturbed by the other task" true
    (shared <> solo_outcomes src seed);
  (* The rate is still right: same maximal sequence, different slice. *)
  let takes = List.length (List.filter Fun.id shared) in
  check Alcotest.bool
    (Printf.sprintf "rate preserved (%d/3000)" takes)
    true
    (abs (takes - 750) < 120)

let test_scheduler_results_independent_of_quantum () =
  (* Architectural results never depend on scheduling, with or without
     LFSR save/restore. *)
  let progs () = [ assemble (brr_task_src 1000 "1/8") ] in
  let result quantum =
    let sched =
      Bor_sim.Scheduler.create ~quantum ~engine:(Bor_core.Engine.create ())
        (progs ())
    in
    (match Bor_sim.Scheduler.run sched with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    List.map
      (fun m -> Bor_sim.Machine.reg m (Bor_isa.Reg.a 0))
      (Bor_sim.Scheduler.machines sched)
  in
  check Alcotest.(list int) "same takes at any quantum" (result 10)
    (result 5000)

let () =
  Alcotest.run "bor_sim"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "clear = fresh" `Quick test_memory_clear;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 41 |])
            prop_memory_walker;
          Alcotest.test_case "clear allocates nothing" `Quick
            test_memory_clear_allocates_nothing;
        ] );
      ( "machine",
        [
          Alcotest.test_case "arith loop" `Quick test_arith_loop;
          Alcotest.test_case "function call" `Quick test_function_call;
          Alcotest.test_case "memory program" `Quick test_memory_program;
          Alcotest.test_case "stack and bytes" `Quick test_stack_and_bytes;
          Alcotest.test_case "zero register" `Quick test_zero_register_immutable;
          Alcotest.test_case "step budget" `Quick test_fetch_fault;
          Alcotest.test_case "marker hook" `Quick test_marker_hook;
          Alcotest.test_case "site hook" `Quick test_site_hook;
          Alcotest.test_case "reused memory = fresh" `Quick test_reused_memory;
        ] );
      ( "patching (§7)",
        [
          Alcotest.test_case "retune frequency mid-run" `Quick
            test_patch_brr_freq;
          Alcotest.test_case "retune in trap mode" `Quick
            test_patch_brr_freq_trap_mode;
        ] );
      ( "scheduler (§3.4)",
        [
          Alcotest.test_case "save/restore isolates tasks" `Quick
            test_scheduler_save_restore_isolates_tasks;
          Alcotest.test_case "sharing interferes" `Quick
            test_scheduler_without_save_restore_interferes;
          Alcotest.test_case "quantum-independent results" `Quick
            test_scheduler_results_independent_of_quantum;
        ] );
      ( "brr",
        [
          Alcotest.test_case "hardware rate" `Quick test_brr_hardware_rate;
          Alcotest.test_case "trap emulation = hardware (§3.4)" `Quick
            test_brr_trap_emulated_equivalence;
          Alcotest.test_case "fixed interval (§4.1 hw counter)" `Quick
            test_brr_fixed_interval;
          Alcotest.test_case "rdlfsr" `Quick test_rdlfsr;
          Alcotest.test_case "brra stats" `Quick test_brr_always_taken_stat;
          Alcotest.test_case "stat categories" `Quick test_stats_categories;
        ] );
    ]
