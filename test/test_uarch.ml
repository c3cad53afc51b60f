(* Tests for Bor_uarch: caches, predictors, BTB, RAS and the pipeline,
   including the paper's §3.4 determinism experiments. *)

let check = Alcotest.check


(* ---------------------------------------------------------------- Cache *)

let test_cache_hit_after_miss () =
  let c = Bor_uarch.Cache.create ~size:1024 ~assoc:2 ~line_bytes:64 () in
  check Alcotest.bool "first is a miss" false (Bor_uarch.Cache.access c 0x100);
  check Alcotest.bool "second hits" true (Bor_uarch.Cache.access c 0x100);
  check Alcotest.bool "same line hits" true (Bor_uarch.Cache.access c 0x13C);
  check Alcotest.bool "different line misses" false
    (Bor_uarch.Cache.access c 0x140)

let test_cache_lru_eviction () =
  (* 2-way set: fill both ways, touch the first, add a third — the
     second (least recent) must be evicted. *)
  let c = Bor_uarch.Cache.create ~size:1024 ~assoc:2 ~line_bytes:64 () in
  let sets = Bor_uarch.Cache.sets c in
  let stride = sets * 64 in
  ignore (Bor_uarch.Cache.access c 0);
  ignore (Bor_uarch.Cache.access c stride);
  ignore (Bor_uarch.Cache.access c 0);
  ignore (Bor_uarch.Cache.access c (2 * stride));
  check Alcotest.bool "way 0 survives" true (Bor_uarch.Cache.probe c 0);
  check Alcotest.bool "way 1 evicted" false (Bor_uarch.Cache.probe c stride)

let test_cache_stats () =
  let c = Bor_uarch.Cache.create ~size:1024 ~assoc:2 ~line_bytes:64 () in
  ignore (Bor_uarch.Cache.access c 0);
  ignore (Bor_uarch.Cache.access c 0);
  let s = Bor_uarch.Cache.stats c in
  check Alcotest.int "accesses" 2 s.accesses;
  check Alcotest.int "misses" 1 s.misses;
  Bor_uarch.Cache.reset_stats c;
  check Alcotest.int "reset" 0 (Bor_uarch.Cache.stats c).accesses

let test_cache_geometry_checks () =
  Alcotest.check_raises "non power-of-two sets"
    (Invalid_argument "Cache.create: set count must be a power of two")
    (fun () ->
      ignore (Bor_uarch.Cache.create ~size:3072 ~assoc:4 ~line_bytes:64 ()));
  (* 48-byte lines: 32 lines in 16 sets, a valid set count, but every
     table indexes by mask, so the line size itself must be a power of
     two. *)
  Alcotest.check_raises "non power-of-two line size"
    (Invalid_argument "Cache.create: line size must be a power of two")
    (fun () ->
      ignore (Bor_uarch.Cache.create ~size:1536 ~assoc:2 ~line_bytes:48 ()));
  Alcotest.check_raises "non power-of-two RAS"
    (Invalid_argument "Ras.create: entries must be a power of two")
    (fun () -> ignore (Bor_uarch.Ras.create ~entries:12));
  Alcotest.check_raises "non power-of-two bimodal table"
    (Invalid_argument
       "Predictor.create: bimodal_entries must be a power of two")
    (fun () ->
      ignore
        (Bor_uarch.Predictor.create
           { Bor_uarch.Config.default with bimodal_entries = 1000 }))

let test_hierarchy_latencies () =
  let h = Bor_uarch.Hierarchy.create Bor_uarch.Config.default in
  let cold = Bor_uarch.Hierarchy.access h Bor_uarch.Hierarchy.D 0x4000 in
  let warm = Bor_uarch.Hierarchy.access h Bor_uarch.Hierarchy.D 0x4000 in
  check Alcotest.int "cold = memory" Bor_uarch.Config.default.mem_latency cold;
  check Alcotest.int "warm = L1" Bor_uarch.Config.default.l1_latency warm;
  (* Evicting from L1 but not L2 gives the L2 latency. This needs enough
     conflicting lines to displace the set. *)
  let conflict i = 0x4000 + (i * Bor_uarch.Config.default.l1_size) in
  for i = 1 to Bor_uarch.Config.default.l1_assoc do
    ignore (Bor_uarch.Hierarchy.access h Bor_uarch.Hierarchy.D (conflict i))
  done;
  let l2 = Bor_uarch.Hierarchy.access h Bor_uarch.Hierarchy.D 0x4000 in
  check Alcotest.int "L2 hit" Bor_uarch.Config.default.l2_latency l2

(* ------------------------------------------------------------ Predictor *)

let train p pc ~taken ~times =
  for _ = 1 to times do
    let pred = Bor_uarch.Predictor.predict p ~pc in
    Bor_uarch.Predictor.update p ~pc pred ~taken
  done

let test_predictor_learns_bias () =
  let p = Bor_uarch.Predictor.create Bor_uarch.Config.default in
  train p 0x1000 ~taken:true ~times:8;
  let pred = Bor_uarch.Predictor.predict p ~pc:0x1000 in
  check Alcotest.bool "predicts taken" true (Bor_uarch.Predictor.taken pred)

let test_predictor_learns_alternation () =
  (* gshare with history learns a strict T/N alternation. *)
  let p = Bor_uarch.Predictor.create Bor_uarch.Config.default in
  let taken = ref false in
  let wrong = ref 0 in
  for i = 1 to 600 do
    taken := not !taken;
    let pred = Bor_uarch.Predictor.predict p ~pc:0x2000 in
    if i > 300 && Bor_uarch.Predictor.taken pred <> !taken then incr wrong;
    Bor_uarch.Predictor.update p ~pc:0x2000 pred ~taken:!taken;
    (* As in hardware: a misprediction repairs the speculative global
       history. *)
    if Bor_uarch.Predictor.taken pred <> !taken then
      Bor_uarch.Predictor.recover p pred ~taken:!taken
  done;
  check Alcotest.bool
    (Printf.sprintf "alternation learned (%d wrong of 300)" !wrong)
    true (!wrong < 10)

let test_predictor_history_recovery () =
  let p = Bor_uarch.Predictor.create Bor_uarch.Config.default in
  let before = Bor_uarch.Predictor.ghist p in
  let pred = Bor_uarch.Predictor.predict p ~pc:0x3000 in
  ignore (Bor_uarch.Predictor.predict p ~pc:0x3004);
  ignore (Bor_uarch.Predictor.predict p ~pc:0x3008);
  Bor_uarch.Predictor.recover p pred ~taken:true;
  check Alcotest.int "history = snapshot + actual"
    (((before lsl 1) lor 1) land 0xFFFF)
    (Bor_uarch.Predictor.ghist p)

(* The int-array tag store [Cache] used to be, kept as the reference
   its byte store must match access for access: same hits, same
   victims, same stats, same digest. *)
module Ref_cache = struct
  type t = {
    sets : int;
    assoc : int;
    line_bytes : int;
    tags : int array;
    lru : int array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~size ~assoc ~line_bytes =
    let sets = size / line_bytes / assoc in
    { sets; assoc; line_bytes; tags = Array.make (sets * assoc) (-1);
      lru = Array.make (sets * assoc) 0; clock = 0; accesses = 0;
      misses = 0; evictions = 0 }

  let split t addr =
    let line = addr / t.line_bytes in
    (line mod t.sets, line / t.sets)

  let find t set tag =
    let rec go w =
      if w = t.assoc then -1
      else if t.tags.((set * t.assoc) + w) = tag then (set * t.assoc) + w
      else go (w + 1)
    in
    go 0

  let probe t addr =
    let set, tag = split t addr in
    find t set tag >= 0

  let access t addr =
    let set, tag = split t addr in
    t.clock <- t.clock + 1;
    t.accesses <- t.accesses + 1;
    let slot = find t set tag in
    if slot >= 0 then begin
      t.lru.(slot) <- t.clock;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      let base = set * t.assoc in
      let victim = ref base in
      for w = 1 to t.assoc - 1 do
        if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
      done;
      if t.tags.(!victim) >= 0 then t.evictions <- t.evictions + 1;
      t.tags.(!victim) <- tag;
      t.lru.(!victim) <- t.clock;
      false
    end

  let reset_stats t =
    t.accesses <- 0;
    t.misses <- 0;
    t.evictions <- 0

  let state_digest t =
    let b = Buffer.create (t.sets * 8) in
    for set = 0 to t.sets - 1 do
      let live =
        List.sort compare
          (List.filter (fun tag -> tag >= 0)
             (List.init t.assoc (fun w -> t.tags.((set * t.assoc) + w))))
      in
      Buffer.add_string b (string_of_int set);
      List.iter (fun tag -> Buffer.add_string b (":" ^ string_of_int tag)) live;
      Buffer.add_char b ';'
    done;
    Bor_telemetry.Sha256.digest (Buffer.contents b)
end

module Region = Bor_uarch.Region

(* The words of a byte store, as the [regions] docs lay them out. *)
let words b =
  Array.init (Bytes.length b / 8) (fun i ->
      Int64.to_int (Bytes.get_int64_ne b (8 * i)))

type cache_op = Access of int | Probe of int

let cache_geometries =
  [ (1024, 1, 64); (2048, 2, 32); (4096, 8, 64); (512, 4, 16) ]

(* Addresses over four times the cache's span, so sets conflict and
   evict, plus a band of high addresses for wide tags. *)
let gen_cache_ops size =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (let* addr =
         frequency
           [ (9, int_bound ((4 * size) - 1));
             (1, map (fun a -> 0x7fff_0000 + a) (int_bound 0xffff)) ]
       in
       frequency [ (4, return (Access addr)); (1, return (Probe addr)) ]))

(* [Cache] on byte stores = the int-array reference, on caches built
   over dirtied ones with [~reuse]: every hit or miss and probe, the
   stats, the resident-line digest and the captured words and clock;
   then the captured regions are restored into another reused cache,
   must capture back unchanged, and the run goes on there against the
   reference. *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"byte-backed cache = int-array reference" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* ((size, _, _) as geometry) = oneofl cache_geometries in
         let* dirt = gen_cache_ops size in
         let* first = gen_cache_ops size in
         let* second = gen_cache_ops size in
         return (geometry, dirt, first, second)))
    (fun ((size, assoc, line_bytes), dirt, first, second) ->
      let module C = Bor_uarch.Cache in
      let create ?reuse () = C.create ?reuse ~size ~assoc ~line_bytes () in
      let dirtied () =
        let d = create () in
        List.iter (function Access a | Probe a -> ignore (C.access d a)) dirt;
        d
      in
      let r = Ref_cache.create ~size ~assoc ~line_bytes in
      let run c ops =
        List.iteri
          (fun i op ->
            let got, want =
              match op with
              | Access a -> (C.access c a, Ref_cache.access r a)
              | Probe a -> (C.probe c a, Ref_cache.probe r a)
            in
            if got <> want then
              QCheck.Test.fail_reportf "op %d: cache says %b, reference %b" i
                got want)
          ops;
        let st = C.stats c in
        if (st.accesses, st.misses, st.evictions)
           <> (r.accesses, r.misses, r.evictions)
        then
          QCheck.Test.fail_reportf "stats %d/%d/%d, reference %d/%d/%d"
            st.accesses st.misses st.evictions r.accesses r.misses
            r.evictions;
        if C.state_digest c <> Ref_cache.state_digest r then
          QCheck.Test.fail_report "state digest differs";
        (match Region.capture C.regions c with
        | Region.
            [ ("clock", Int clock); ("tags", Data (Words, tags));
              ("lru", Data (Words, lru)) ] ->
          if words tags <> r.tags || words lru <> r.lru || clock <> r.clock
          then QCheck.Test.fail_report "captured words differ"
        | _ -> QCheck.Test.fail_report "unexpected cache regions");
        C.check c
      in
      let c = create ~reuse:(dirtied ()) () in
      run c first;
      let c' = create ~reuse:(dirtied ()) () in
      Region.restore C.regions c' (Region.capture C.regions c);
      if Region.capture C.regions c' <> Region.capture C.regions c then
        QCheck.Test.fail_report "capture -> restore -> capture changed the state";
      Ref_cache.reset_stats r;
      run c' second;
      true)

(* ------------------------------------------------------------ BTB / RAS *)

let test_btb () =
  let b = Bor_uarch.Btb.create ~entries:16 () in
  check Alcotest.(option int) "cold miss" None (Bor_uarch.Btb.lookup b ~pc:0x40);
  Bor_uarch.Btb.insert b ~pc:0x40 ~target:0x999;
  check Alcotest.(option int) "hit" (Some 0x999)
    (Bor_uarch.Btb.lookup b ~pc:0x40);
  (* Aliasing: another pc mapping to the same slot evicts. *)
  Bor_uarch.Btb.insert b ~pc:(0x40 + (16 * 4)) ~target:0x111;
  check Alcotest.(option int) "alias evicts" None
    (Bor_uarch.Btb.lookup b ~pc:0x40)

(* The int-array BTB, kept as the reference for the byte-backed one. *)
module Ref_btb = struct
  type t = {
    tags : int array;
    targets : int array;
    mutable lookups : int;
    mutable hits : int;
    mutable inserts : int;
    mutable alias_evictions : int;
  }

  let create ~entries =
    { tags = Array.make entries (-1); targets = Array.make entries 0;
      lookups = 0; hits = 0; inserts = 0; alias_evictions = 0 }

  let slot t pc = pc / 4 mod Array.length t.tags

  let lookup_target t ~pc =
    t.lookups <- t.lookups + 1;
    let i = slot t pc in
    if t.tags.(i) = pc then begin
      t.hits <- t.hits + 1;
      t.targets.(i)
    end
    else -1

  let insert t ~pc ~target =
    let i = slot t pc in
    t.inserts <- t.inserts + 1;
    if t.tags.(i) >= 0 && t.tags.(i) <> pc then
      t.alias_evictions <- t.alias_evictions + 1;
    t.tags.(i) <- pc;
    t.targets.(i) <- target

  let state_digest t =
    let b = Buffer.create 64 in
    Array.iteri
      (fun i tag ->
        if tag >= 0 then
          Buffer.add_string b
            (Printf.sprintf "%d:%d:%d;" i tag t.targets.(i)))
      t.tags;
    Bor_telemetry.Sha256.digest (Buffer.contents b)
end

type btb_op = Lookup of int | Insert of int * int

let gen_btb_ops entries =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (let* pc = map (fun i -> 4 * i) (int_bound ((4 * entries) - 1)) in
       frequency
         [ (3, return (Lookup pc));
           (2, map (fun target -> Insert (pc, target)) (int_bound 0x7fff_ffff)) ]))

(* [Btb] on byte stores = the int-array reference, on BTBs built over
   dirtied ones with [~reuse]: every lookup, the four telemetry
   counters, the digest and the captured words; then a capture ->
   restore -> capture round trip into another reused BTB, and the run
   goes on there. *)
let prop_btb_matches_reference =
  QCheck.Test.make ~name:"byte-backed BTB = int-array reference" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* entries = oneofl [ 1; 16; 64 ] in
         let* dirt = gen_btb_ops entries in
         let* first = gen_btb_ops entries in
         let* second = gen_btb_ops entries in
         return (entries, dirt, first, second)))
    (fun (entries, dirt, first, second) ->
      let module B = Bor_uarch.Btb in
      let dirtied () =
        let d = B.create ~entries () in
        List.iter
          (function
            | Lookup pc -> ignore (B.lookup_target d ~pc)
            | Insert (pc, target) -> B.insert d ~pc ~target)
          dirt;
        d
      in
      let r = Ref_btb.create ~entries in
      let run b ops =
        List.iteri
          (fun i op ->
            match op with
            | Lookup pc ->
              let got = B.lookup_target b ~pc
              and want = Ref_btb.lookup_target r ~pc in
              if got <> want then
                QCheck.Test.fail_reportf "op %d: btb says %d, reference %d" i
                  got want
            | Insert (pc, target) ->
              B.insert b ~pc ~target;
              Ref_btb.insert r ~pc ~target)
          ops;
        let counter n = Option.value ~default:0 (Bor_telemetry.Telemetry.find_counter n) in
        if
          ( counter "btb.lookups", counter "btb.hits", counter "btb.inserts",
            counter "btb.alias_evictions" )
          <> (r.lookups, r.hits, r.inserts, r.alias_evictions)
        then QCheck.Test.fail_report "telemetry counters differ";
        if B.state_digest b <> Ref_btb.state_digest r then
          QCheck.Test.fail_report "state digest differs";
        match Region.capture B.regions b with
        | Region.
            [ ("tags", Data (Words, tags)); ("targets", Data (Words, targets)) ]
          ->
          if words tags <> r.tags || words targets <> r.targets then
            QCheck.Test.fail_report "captured words differ"
        | _ -> QCheck.Test.fail_report "unexpected BTB regions"
      in
      (* Donors count nowhere; the BTBs under test share one private
         registry, so its counters run on across the round trip like
         the reference's. *)
      let donor = dirtied () and donor' = dirtied () in
      fst
        (Bor_telemetry.Telemetry.isolated ~enabled:true (fun () ->
             let b = B.create ~reuse:donor ~entries () in
             run b first;
             let b' = B.create ~reuse:donor' ~entries () in
             Region.restore B.regions b' (Region.capture B.regions b);
             if Region.capture B.regions b' <> Region.capture B.regions b then
               QCheck.Test.fail_report
                 "capture -> restore -> capture changed the state";
             run b' second;
             true)))

let test_ras () =
  let r = Bor_uarch.Ras.create ~entries:4 in
  check Alcotest.(option int) "empty" None (Bor_uarch.Ras.pop r);
  Bor_uarch.Ras.push r 1;
  Bor_uarch.Ras.push r 2;
  check Alcotest.(option int) "lifo" (Some 2) (Bor_uarch.Ras.pop r);
  check Alcotest.(option int) "lifo" (Some 1) (Bor_uarch.Ras.pop r);
  (* Overflow wraps: pushing 5 into 4 entries loses the oldest. *)
  List.iter (Bor_uarch.Ras.push r) [ 1; 2; 3; 4; 5 ];
  check Alcotest.int "depth capped" 4 (Bor_uarch.Ras.depth r);
  check Alcotest.(option int) "newest on top" (Some 5) (Bor_uarch.Ras.pop r)

(* ------------------------------------------------------------- Pipeline *)

let assemble src =
  match Bor_isa.Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Bor_isa.Asm.pp_error e

let run_pipeline ?config p =
  let t = Bor_uarch.Pipeline.create ?config p in
  match Bor_uarch.Pipeline.run t with
  | Ok st -> (t, st)
  | Error e -> Alcotest.fail e

let test_pipeline_architectural_equivalence () =
  (* The timing simulator's committed state must match a pure functional
     run: same registers, same memory. *)
  let src =
    {|
main:   li   s0, 0
        li   s1, 200
        la   s2, buf
loop:   andi t0, s1, 7
        slli t1, s1, 2
        add  t1, t1, t0
        add  s0, s0, t1
        sw   s0, 0(s2)
        addi s2, s2, 4
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
        .data
buf:    .space 4096
      |}
  in
  let p = assemble src in
  let t, _ = run_pipeline p in
  let reference = Bor_sim.Machine.create p in
  (match Bor_sim.Machine.run reference with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let o = Bor_uarch.Pipeline.oracle t in
  for i = 0 to 31 do
    let r = Bor_isa.Reg.of_int i in
    check Alcotest.int
      (Printf.sprintf "r%d" i)
      (Bor_sim.Machine.reg reference r)
      (Bor_sim.Machine.reg o r)
  done;
  let buf = Option.get (Bor_isa.Program.find_symbol p "buf") in
  for i = 0 to 199 do
    check Alcotest.int "memory word"
      (Bor_sim.Memory.read_word (Bor_sim.Machine.memory reference) (buf + (4 * i)))
      (Bor_sim.Memory.read_word (Bor_sim.Machine.memory o) (buf + (4 * i)))
  done

let test_pipeline_ipc_bounds () =
  let p =
    assemble
      {|
main:   li   t0, 10000
loop:   addi t1, t1, 1
        addi t2, t2, 1
        addi t3, t3, 1
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
      |}
  in
  let _, st = run_pipeline p in
  let ipc = Bor_uarch.Pipeline.ipc st in
  (* Independent ALU chains with a predictable loop: should be fast but
     bounded by the 3-wide fetch. *)
  check Alcotest.bool (Printf.sprintf "ipc %.2f in (1.5, 3.0]" ipc) true
    (ipc > 1.5 && ipc <= 3.0)

let test_pipeline_mispredict_penalty () =
  (* A loop whose inner branch is data-random mispredicts often; IPC
     must drop well below the predictable version. *)
  let src_random =
    {|
main:   li   s0, 20011       ; LCG state
        li   s1, 20000
loop:   li   t0, 1103515245
        mul  s0, s0, t0
        addi s0, s0, 1234
        srli t1, s0, 13
        andi t1, t1, 1
        beq  t1, zero, skip
        addi t2, t2, 1
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
      |}
  in
  let _, st = run_pipeline (assemble src_random) in
  check Alcotest.bool "many mispredicts" true (st.cond_mispredicts > 3000);
  check Alcotest.bool "penalty at least ~10 cycles each" true
    (st.cycles
    > st.cond_mispredicts * 8)

let test_brr_committed_at_decode () =
  (* A not-taken branch-on-random costs only its slot: overhead of the
     brr version over the plain version should be well under a cycle per
     iteration. *)
  let plain =
    {|
main:   li   s1, 30000
loop:   addi t1, t1, 3
        xor  t2, t2, t1
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
tgt:    brra loop
      |}
  in
  let with_brr =
    {|
main:   li   s1, 30000
loop:   brr  1/65536, tgt
        addi t1, t1, 3
        xor  t2, t2, t1
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
tgt:    brra loop
      |}
  in
  let _, base = run_pipeline (assemble plain) in
  let _, brr = run_pipeline (assemble with_brr) in
  check Alcotest.int "all brrs executed" 30000 brr.brr_executed;
  let extra =
    Float.of_int (brr.cycles - base.cycles) /. 30000.
  in
  check Alcotest.bool
    (Printf.sprintf "%.3f extra cycles per not-taken brr" extra)
    true (extra < 0.75);
  check Alcotest.int "predictor untouched: same mispredicts"
    base.cond_mispredicts brr.cond_mispredicts

let test_brr_taken_frontend_flush () =
  let src =
    {|
main:   li   s1, 20000
loop:   brr  1/2, tgt
back:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
tgt:    addi t1, t1, 1
        brra back
      |}
  in
  let _, st = run_pipeline (assemble src) in
  check Alcotest.bool "about half taken" true
    (abs (st.brr_taken - 10000) < 600);
  check Alcotest.int "frontend flush per take" st.brr_taken
    st.frontend_flushes;
  (* The loop's own bne mispredicts a handful of times (cold counters
     and loop exit); the branch-on-randoms must add none. *)
  check Alcotest.bool "backend flushes only from the loop branch" true
    (st.backend_flushes <= 5)

module Telemetry = Bor_telemetry.Telemetry

(* Every pipeline.* counter and the stats field it publishes, spelled
   out here rather than read from the implementation's table. *)
let pipeline_counters (st : Bor_uarch.Pipeline.stats) =
  [
    ("pipeline.fetch.slots", st.fetch_slots);
    ("pipeline.fetch.full_packets", st.cycles_fetch_full);
    ("pipeline.fetch.icache_stalls", st.fetch_icache_stalls);
    ("pipeline.fetch.predecode_redirects", st.predecode_redirects);
    ("pipeline.decode.slots", st.decode_slots);
    ("pipeline.stall.decode_starved", st.cycles_decode_starved);
    ("pipeline.stall.rob_full", st.cycles_rob_full);
    ("pipeline.issue.slots", st.issue_slots);
    ("pipeline.commit.slots", st.commit_slots);
    ("pipeline.brr.resolved", st.brr_executed);
    ("pipeline.brr.taken", st.brr_taken);
    ("pipeline.flush.frontend", st.frontend_flushes);
    ("pipeline.flush.backend", st.backend_flushes);
    ("pipeline.flush.squashed", st.squashed);
    ("pipeline.mispredict.cond", st.cond_mispredicts);
    ("pipeline.mispredict.return", st.return_mispredicts);
    ("pipeline.cycles", st.cycles);
  ]

let registered_with ~prefix =
  List.filter
    (fun (n, _) -> String.starts_with ~prefix n)
    (Telemetry.counters ())

let tel_counter name =
  match Telemetry.find_counter name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not registered" name

(* The cache.* counters [t]'s hierarchy should have published, sorted
   by name: hits, misses and evictions per level, from [Cache.stats]. *)
let cache_counters t =
  let module H = Bor_uarch.Hierarchy in
  let h = (Bor_uarch.Pipeline.warm t).hier in
  List.concat_map
    (fun (level, c) ->
      let s = Bor_uarch.Cache.stats c in
      let n = "cache." ^ level ^ "." in
      [
        (n ^ "evictions", s.evictions);
        (n ^ "hits", s.accesses - s.misses);
        (n ^ "misses", s.misses);
      ])
    [ ("l1d", H.l1d h); ("l1i", H.l1i h); ("l2", H.l2 h) ]

(* Run [f] against a fresh, enabled registry. *)
let with_telemetry f =
  Telemetry.clear ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.clear ())
    f

(* The registry's pipeline.* counters are exactly [pipeline_counters st],
   and the occupancy histogram agrees with the stats accumulators. *)
let check_pipeline_telemetry what (st : Bor_uarch.Pipeline.stats) =
  let expected = pipeline_counters st in
  check
    Alcotest.(list string)
    (what ^ ": registered pipeline.* counters")
    (List.sort compare (List.map fst expected))
    (List.map fst (registered_with ~prefix:"pipeline."));
  List.iter
    (fun (name, v) ->
      check Alcotest.int (what ^ ": " ^ name) v (tel_counter name))
    expected;
  (* The occupancy histogram is fed once per simulated cycle --
     including cycles the quiescent-skip fast path replays in bulk --
     so its count and sum must equal the stats accumulators. *)
  let module Json = Bor_telemetry.Json in
  let occ =
    match Json.member "pipeline.rob.occupancy" (Telemetry.to_json ()) with
    | Some h -> h
    | None -> Alcotest.fail "histogram pipeline.rob.occupancy missing"
  in
  let field f =
    match Json.member f occ with
    | Some (Json.Int v) -> v
    | _ -> Alcotest.failf "histogram field %s missing" f
  in
  check Alcotest.int (what ^ ": occupancy observed once per cycle") st.cycles
    (field "count");
  check Alcotest.int (what ^ ": occupancy sum = stats accumulator")
    st.rob_occupancy (field "sum")

(* A loop that fires every pipeline.* counter: taken branch-on-randoms,
   loads and stores (a 4 KiB-strided walk over 1 MiB fills the ROB
   behind misses), a branch on [rdlfsr] that mispredicts, calls, and a
   recursion deeper than the RAS so some returns mispredict. [%s] sits
   between the warm-up loop and the measured one. *)
let penalty_src =
  Printf.sprintf
    {|
main:   li   s0, 2000
warm:   addi t0, t0, 1
        bne  s0, t0, warm
        %s
        la   s2, buf
        la   s3, big
        li   s1, 6000
loop:   brr  1/2, tgt
back:   andi t1, s1, 31
        slli t1, t1, 2
        add  t3, s2, t1
        lw   t2, 0(t3)
        add  t2, t2, s1
        sw   t2, 0(t3)
        andi t1, s1, 255
        slli t1, t1, 12
        add  t3, s3, t1
        lw   t2, 0(t3)
        rdlfsr t4
        andi t4, t4, 1
        bne  t4, zero, skip
        jal  leaf
skip:   andi t1, s1, 127
        bne  t1, zero, next
        li   a0, 40
        jal  rec
next:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
tgt:    addi t5, t5, 1
        brra back
leaf:   addi t6, t6, 1
        ret
rec:    addi sp, sp, -4
        sw   ra, 0(sp)
        addi a0, a0, -1
        beq  a0, zero, rdone
        jal  rec
rdone:  lw   ra, 0(sp)
        addi sp, sp, 4
        ret
        .data
buf:    .space 128
big:    .space 1048576
|}

let test_telemetry_matches_stats () =
  (* The stats record is the only per-event store; pipeline.* telemetry
     is published from it, so on a marker-less program the two views
     agree exactly. The known penalty identities (one front-end flush
     per taken brr, one back-end flush per committed mispredict) hold
     on top. *)
  with_telemetry (fun () ->
      let t, st = run_pipeline (assemble (penalty_src "nop")) in
      check_pipeline_telemetry "no markers" st;
      check
        Alcotest.(list (pair string int))
        "no markers: cache.* = Cache.stats" (cache_counters t)
        (registered_with ~prefix:"cache.");
      check Alcotest.bool "the strided walk evicts L1D lines" true
        (tel_counter "cache.l1d.evictions" > 0);
      (* brrs retire at decode resolution, not through the ROB, so they
         count in instructions but not in commit slots. *)
      check Alcotest.int "instructions = commit slots + resolved brrs"
        st.instructions
        (st.commit_slots + st.brr_executed);
      check Alcotest.int "one frontend flush per taken brr" st.brr_taken
        st.frontend_flushes;
      check Alcotest.int "one backend flush per committed mispredict"
        (st.cond_mispredicts + st.return_mispredicts)
        st.backend_flushes;
      List.iter
        (fun (name, v) ->
          if v = 0 then
            Alcotest.failf "%s never fired: the program misses it" name)
        (pipeline_counters st);
      check Alcotest.int "l1i misses" st.l1i_misses
        (tel_counter "cache.l1i.misses");
      check Alcotest.int "l1d misses" st.l1d_misses
        (tel_counter "cache.l1d.misses");
      check Alcotest.int "l2 misses" st.l2_misses (tel_counter "cache.l2.misses"));
  (* [marker 1] resets the stats but telemetry counts whole runs, so the
     registry must hold what the stats of the same program would hold
     with the marker replaced by a [nop]. Both complete at decode, so
     the timing is identical. *)
  let t_whole, whole = run_pipeline (assemble (penalty_src "nop")) in
  with_telemetry (fun () ->
      let _, roi = run_pipeline (assemble (penalty_src "marker 1")) in
      check Alcotest.bool "marker 1 reset the stats" true
        (roi.cycles < whole.cycles);
      check_pipeline_telemetry "marker 1" whole;
      check
        Alcotest.(list (pair string int))
        "marker 1: cache.* = the whole run's Cache.stats"
        (cache_counters t_whole)
        (registered_with ~prefix:"cache."))

(* Publishing happens at every exit of [run] and [run_window], [Ok] or
   [Error], and adds only what is new. *)
let test_telemetry_exit_paths () =
  let spin = assemble "main: addi t0, t0, 1\n j main\n" in
  with_telemetry (fun () ->
      let t = Bor_uarch.Pipeline.create spin in
      (match Bor_uarch.Pipeline.run ~max_cycles:5000 t with
      | Ok _ -> Alcotest.fail "a non-terminating loop halted"
      | Error _ -> ());
      check Alcotest.int "budget error: pipeline.cycles = cycle"
        (Bor_uarch.Pipeline.cycle t)
        (tel_counter "pipeline.cycles"));
  with_telemetry (fun () ->
      let r, export =
        Telemetry.isolated ~enabled:true (fun () ->
            Bor_uarch.Pipeline.run_window ~max_cycles:1 ~warmup:10
              ~window:100
              (Bor_uarch.Pipeline.create (assemble (penalty_src "nop"))))
      in
      (match r with
      | Ok _ -> Alcotest.fail "a 1-cycle window budget succeeded"
      | Error _ -> ());
      check Alcotest.(option int) "nothing leaked into the caller" None
        (Telemetry.find_counter "pipeline.cycles");
      Telemetry.absorb export;
      check Alcotest.bool "failed window exports its cycles" true
        (tel_counter "pipeline.cycles" > 0);
      check Alcotest.bool "failed window exports its L1I misses" true
        (tel_counter "cache.l1i.misses" > 0));
  with_telemetry (fun () ->
      let t, _ = run_pipeline (assemble (penalty_src "marker 1")) in
      let first = registered_with ~prefix:"pipeline." in
      (match Bor_uarch.Pipeline.run t with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      check
        Alcotest.(list (pair string int))
        "second run on a halted pipeline adds nothing" first
        (registered_with ~prefix:"pipeline."))

let test_roi_markers () =
  let src =
    {|
main:   li   t0, 5000       ; outside the region of interest
warm:   addi t0, t0, -1
        bne  t0, zero, warm
        marker 1
        li   t1, 100
roi:    addi t1, t1, -1
        bne  t1, zero, roi
        marker 2
        li   t2, 5000       ; cooldown, also outside
cool:   addi t2, t2, -1
        bne  t2, zero, cool
        halt
      |}
  in
  let _, st = run_pipeline (assemble src) in
  (* Only the 100-iteration middle loop is measured: ~300 instructions,
     not ~20000. *)
  check Alcotest.bool
    (Printf.sprintf "instructions %d in ROI range" st.instructions)
    true
    (st.instructions > 150 && st.instructions < 800)

(* --------------------------------------------------- §3.4 determinism *)

(* A workload with data-dependent (mispredicting) branches AND
   branch-on-randoms: squashes will occur near brr decodes, losing LFSR
   transitions unless the checkpointing of §3.4 is enabled. *)
let determinism_src =
  {|
main:   li   s0, 12345
        li   s1, 30000
loop:   li   t0, 1103515245
        mul  s0, s0, t0
        addi s0, s0, 1234
        srli t1, s0, 11
        andi t1, t1, 1
        beq  t1, zero, even
        brr  1/4, tgt
back:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
even:   brr  1/4, tgt2
        j    back
tgt:    addi t2, t2, 1
        brra back
tgt2:   addi t3, t3, 1
        brra back
      |}

(* A detailed run's committed branch-on-random stream, oldest first,
   read off the tracer's [Brr_resolved] events. *)
let traced_outcomes config p =
  let t = Bor_uarch.Pipeline.create ~config p in
  let outcomes = ref [] in
  Bor_uarch.Pipeline.set_tracer t (function
    | Bor_uarch.Pipeline.Brr_resolved { taken; _ } ->
      outcomes := taken :: !outcomes
    | _ -> ());
  match Bor_uarch.Pipeline.run t with
  | Ok st -> (List.rev !outcomes, st)
  | Error e -> Alcotest.fail e

let retired_outcomes config = traced_outcomes config (assemble determinism_src)

(* The stream a purely functional (no speculation) run of [p] draws from
   [seed], logged through the External hook (brra never consults the
   engine). *)
let functional_outcomes ~seed p =
  let engine = Bor_core.Engine.create ~seed () in
  let functional = ref [] in
  let decide freq =
    let o = Bor_core.Engine.decide engine freq in
    functional := o :: !functional;
    o
  in
  let m =
    Bor_sim.Machine.create ~brr_mode:(Bor_sim.Machine.External decide) p
  in
  (match Bor_sim.Machine.run m with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.rev !functional

let test_deterministic_lfsr_repeatable () =
  (* With §3.4 checkpointing, the retired outcome sequence is a pure
     function of the seed — repeatable run to run. *)
  let cfg = { Bor_uarch.Config.default with deterministic_lfsr = true } in
  let a, st = retired_outcomes cfg in
  let b, _ = retired_outcomes cfg in
  check Alcotest.bool "squashes occurred" true (st.backend_flushes > 1000);
  check Alcotest.bool "sequences equal" true (a = b);
  check Alcotest.int "one retired outcome per committed brr"
    st.brr_executed (List.length a)

let test_deterministic_matches_functional () =
  (* With checkpointing, the hardware consumes exactly one LFSR
     transition per retired brr — the same stream a purely functional
     (no speculation) run sees. *)
  let cfg = { Bor_uarch.Config.default with deterministic_lfsr = true } in
  let timing, _ = retired_outcomes cfg in
  check Alcotest.bool "timing (checkpointed) = functional stream" true
    (timing
    = functional_outcomes ~seed:cfg.lfsr_seed (assemble determinism_src))

(* [Brr_resolved] marks every correct-path branch-on-random decision in
   program order whether the brr resolves in decode or, under the §3.3
   ablation, in the back end — so either way the traced stream is the
   committed one, and with checkpointing it is the functional one. *)
let test_tracer_carries_brr_stream () =
  let p = assemble determinism_src in
  List.iter
    (fun brr_resolve_in_backend ->
      let cfg =
        {
          Bor_uarch.Config.default with
          deterministic_lfsr = true;
          brr_resolve_in_backend;
        }
      in
      let traced, st = traced_outcomes cfg p in
      let what = Printf.sprintf "resolve_in_backend=%b" brr_resolve_in_backend in
      check Alcotest.int
        (what ^ ": one event per committed brr")
        st.brr_executed (List.length traced);
      check Alcotest.bool
        (what ^ ": traced = functional stream")
        true
        (traced = functional_outcomes ~seed:cfg.lfsr_seed p))
    [ false; true ]

let test_nondeterministic_loses_transitions () =
  (* Without checkpointing, wrong-path brr decodes consume transitions;
     the retired stream differs from the functional stream, but the
     take RATE is preserved (the paper's point: losing transitions does
     not affect the probabilities). *)
  let cfg = { Bor_uarch.Config.default with deterministic_lfsr = false } in
  let timing, st = retired_outcomes cfg in
  let det_cfg = { cfg with deterministic_lfsr = true } in
  let det, _ = retired_outcomes det_cfg in
  check Alcotest.bool "streams differ when transitions are lost" true
    (timing <> det);
  let rate outcomes =
    Float.of_int (List.length (List.filter Fun.id outcomes))
    /. Float.of_int (List.length outcomes)
  in
  check Alcotest.bool
    (Printf.sprintf "rate preserved (%.3f vs 0.25)" (rate timing))
    true
    (Float.abs (rate timing -. 0.25) < 0.02);
  check Alcotest.bool "brr executed count architecturally equal" true
    (st.brr_executed = 30000)

let test_minic_differential_matches_functional () =
  (* The §3.4 determinism experiment at compiler scale: seeded minic
     binaries (the §5.3 microbenchmark under brr sampling) through the
     ring-buffer pipeline must retire exactly the outcome stream a
     purely functional, no-speculation run draws from the same seed. *)
  let cfg = { Bor_uarch.Config.default with deterministic_lfsr = true } in
  List.iter
    (fun seed ->
      let compiled =
        Bor_workload.Micro.compile ~chars:2_000 ~seed
          Bor_minic.Instrument.(
            Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))
      in
      let p = compiled.Bor_minic.Driver.program in
      let timing, st = traced_outcomes cfg p in
      check Alcotest.int
        (Printf.sprintf "seed %d: one retired outcome per executed brr" seed)
        st.brr_executed (List.length timing);
      check Alcotest.bool
        (Printf.sprintf "seed %d: timing = functional stream" seed)
        true
        (timing = functional_outcomes ~seed:cfg.lfsr_seed p))
    [ 1; 42; 2008 ]

let test_trace_events () =
  let p =
    assemble
      {|
main:   li   t0, 100
loop:   brr  1/4, tgt
back:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
tgt:    addi t1, t1, 1
        brra back
      |}
  in
  let t = Bor_uarch.Pipeline.create p in
  let commits = ref 0 and brrs = ref 0 and fflush = ref 0 in
  Bor_uarch.Pipeline.set_tracer t (fun ev ->
      match ev with
      | Bor_uarch.Pipeline.Commit _ -> incr commits
      | Bor_uarch.Pipeline.Brr_resolved _ -> incr brrs
      | Bor_uarch.Pipeline.Front_flush _ -> incr fflush
      | Bor_uarch.Pipeline.Back_flush _ -> ());
  (match Bor_uarch.Pipeline.run t with
  | Ok st ->
    check Alcotest.int "one trace event per brr" st.brr_executed !brrs;
    check Alcotest.bool "front flushes traced" true
      (!fflush >= st.brr_taken);
    (* Commits exclude decode-retired brrs. *)
    check Alcotest.int "commit events"
      (st.instructions - st.brr_executed)
      !commits
  | Error e -> Alcotest.fail e)

let test_memory_latency_dominates_dependent_misses () =
  (* A dependent chase: the next address uses the loaded value (always
     zero here, but the dependence is real), so misses serialise and
     cycles per load approach the 140-cycle memory latency. Independent
     misses, by contrast, overlap in the 80-entry window. *)
  let p =
    assemble
      {|
main:   li   s0, 1500
        li   s1, 0x4000
        li   s2, 4096
loop:   lw   t0, 0(s1)
        add  s1, s1, t0       ; serialise on the loaded value
        add  s1, s1, s2       ; new line and set every time
        addi s0, s0, -1
        bne  s0, zero, loop
        halt
      |}
  in
  let t = Bor_uarch.Pipeline.create p in
  match Bor_uarch.Pipeline.run t with
  | Error e -> Alcotest.fail e
  | Ok st ->
    let per_load = Float.of_int st.cycles /. 1500. in
    check Alcotest.bool
      (Printf.sprintf "%.0f cycles per dependent cold load" per_load)
      true
      (per_load > 100. && per_load < 200.)

let test_rob_limits_mlp () =
  (* Independent cold loads: the 80-entry ROB lets many misses overlap;
     halving the ROB to 8 should slow the run down sharply. *)
  let src =
    {|
main:   li   s0, 900
        li   s1, 0x4000
        li   s2, 8192
loop:   lw   t0, 0(s1)
        lw   t1, 64(s1)
        lw   t2, 128(s1)
        add  s1, s1, s2
        addi s0, s0, -1
        bne  s0, zero, loop
        halt
      |}
  in
  let cycles rob_entries =
    let config = { Bor_uarch.Config.default with rob_entries } in
    let t = Bor_uarch.Pipeline.create ~config (assemble src) in
    match Bor_uarch.Pipeline.run t with
    | Ok st -> st.cycles
    | Error e -> Alcotest.fail e
  in
  let big = cycles 80 and small = cycles 8 in
  check Alcotest.bool
    (Printf.sprintf "rob 8: %d vs rob 80: %d" small big)
    true
    (small > big * 12 / 10)

let test_ras_predicts_returns () =
  (* Nested calls: every return should be RAS-predicted after warmup. *)
  let p =
    assemble
      {|
main:   li   s0, 2000
loop:   jal  outer
        addi s0, s0, -1
        bne  s0, zero, loop
        halt
outer:  addi sp, sp, -16
        sw   ra, 0(sp)
        jal  inner
        jal  inner
        lw   ra, 0(sp)
        addi sp, sp, 16
        ret
inner:  addi t0, t0, 1
        ret
      |}
  in
  let _, st = run_pipeline p in
  check Alcotest.int "three returns per iteration" 6000 st.returns;
  check Alcotest.bool
    (Printf.sprintf "RAS almost perfect (%d misses)" st.return_mispredicts)
    true
    (st.return_mispredicts < 20)

let test_icache_pressure () =
  (* A loop whose body exceeds the 32KB L1I misses on every lap (§2 item
     1: instrumentation growth causes i-cache misses). Generate a long
     straight-line body. *)
  let body_small = 256 and body_large = 12_000 in
  let program n =
    let buf = Buffer.create (n * 24) in
    Buffer.add_string buf "main:   li   s0, 200\nloop:\n";
    for i = 0 to n - 1 do
      Buffer.add_string buf
        (Printf.sprintf "        addi t%d, t%d, 1\n" (i mod 4) (i mod 4))
    done;
    (* The loop body exceeds the conditional-branch range; close the
       loop with a long unconditional jump instead. *)
    Buffer.add_string buf
      "        addi s0, s0, -1\n        beq  s0, zero, done\n        j    loop\ndone:   halt\n";
    assemble (Buffer.contents buf)
  in
  let stats n =
    let t = Bor_uarch.Pipeline.create (program n) in
    match Bor_uarch.Pipeline.run t with
    | Ok st -> st
    | Error e -> Alcotest.fail e
  in
  let small = stats body_small in
  let large = stats body_large in
  check Alcotest.bool "small loop fits L1I" true (small.l1i_misses < 50);
  (* 12k instructions = 48KB of code: every line misses every lap. *)
  check Alcotest.bool
    (Printf.sprintf "large loop thrashes L1I (%d misses)" large.l1i_misses)
    true
    (large.l1i_misses > 50_000);
  let ipc_small = Bor_uarch.Pipeline.ipc small in
  let ipc_large = Bor_uarch.Pipeline.ipc large in
  check Alcotest.bool
    (Printf.sprintf "ipc suffers (%.2f -> %.2f)" ipc_small ipc_large)
    true
    (ipc_large < ipc_small /. 2.)

let test_lfsr_port_arbitration () =
  (* Back-to-back brrs: with one shared LFSR port (footnote 3), at most
     one decodes per cycle; with replicated LFSRs they pack together.
     Architectural results are identical; the shared version is a touch
     slower. *)
  let p =
    assemble
      {|
main:   li   s0, 20000
loop:   brr  1/16384, tg1
b1:     brr  1/16384, tg2
b2:     brr  1/16384, tg3
b3:     addi s0, s0, -1
        bne  s0, zero, loop
        halt
tg1:     brra b1
tg2:     brra b2
tg3:     brra b3
      |}
  in
  let run ports =
    let config = { Bor_uarch.Config.default with lfsr_ports = ports } in
    let t = Bor_uarch.Pipeline.create ~config p in
    match Bor_uarch.Pipeline.run t with
    | Ok st -> st
    | Error e -> Alcotest.fail e
  in
  let shared = run 1 in
  let replicated = run 4 in
  check Alcotest.int "same brr count" replicated.brr_executed
    shared.brr_executed;
  check Alcotest.bool
    (Printf.sprintf "shared port is slower (%d vs %d cycles)" shared.cycles
       replicated.cycles)
    true
    (shared.cycles > replicated.cycles)

(* ------------------------------------------------------- §3.3 ablations *)

let brr_heavy_src =
  {|
main:   li   s1, 30000
loop:   brr  1/8, tgt
back:   addi t1, t1, 1
        xor  t2, t2, t1
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
tgt:    addi t3, t3, 1
        brra back
      |}

let run_with config =
  let p = assemble brr_heavy_src in
  let t = Bor_uarch.Pipeline.create ~config p in
  match Bor_uarch.Pipeline.run t with
  | Ok st -> st
  | Error e -> Alcotest.fail e

let test_backend_resolution_costs_more () =
  let fast = run_with Bor_uarch.Config.default in
  let slow =
    run_with { Bor_uarch.Config.default with brr_resolve_in_backend = true }
  in
  (* Same architectural behaviour... *)
  check Alcotest.int "same takes" fast.brr_taken slow.brr_taken;
  check Alcotest.int "same instructions" fast.instructions slow.instructions;
  (* ...but every take now pays a back-end squash instead of a front-end
     flush. *)
  check Alcotest.int "no front-end flushes" 0 slow.frontend_flushes;
  check Alcotest.bool "slower" true (slow.cycles > fast.cycles);
  check Alcotest.bool "squashes include the brr takes" true
    (slow.backend_flushes >= slow.brr_taken)

let test_predictor_ablation_preserves_semantics () =
  let fast = run_with Bor_uarch.Config.default in
  let polluted =
    run_with { Bor_uarch.Config.default with brr_in_predictor = true } in
  check Alcotest.int "same takes" fast.brr_taken polluted.brr_taken;
  check Alcotest.int "same instructions" fast.instructions
    polluted.instructions;
  (* With the pollution ablation the predictor sometimes guesses the brr
     taken, so the flush count differs from the take count. *)
  check Alcotest.bool "flush count decoupled from takes" true
    (polluted.frontend_flushes <> polluted.brr_taken
    || polluted.cycles <> fast.cycles)

(* -------------------------------------------------------- Sampling plan *)

module Sp = Bor_uarch.Sampling_plan

let plan_exn s =
  match Sp.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let test_plan_parse_roundtrip () =
  let p = plan_exn "2000:1000:200000:13" in
  check Alcotest.string "roundtrip with seed" "2000:1000:200000:13"
    (Sp.to_string p);
  check Alcotest.int "slack" (200_000 - 3000) (Sp.slack p);
  let q = plan_exn "0:5:5" in
  check Alcotest.string "roundtrip without seed" "0:5:5" (Sp.to_string q);
  check Alcotest.int "zero slack" 0 (Sp.slack q)

let test_plan_rejects_malformed () =
  let bad s =
    match Sp.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error _ -> ()
  in
  List.iter bad
    [
      "2000:1000" (* too few fields *); "1:2:3:4:5" (* too many *);
      "a:b:c" (* not integers *); "-1:10:100" (* negative warmup *);
      "10:0:100" (* empty window *);
      "10:10:19" (* period shorter than warmup + window *);
    ]

let test_plan_edge_cases () =
  (* Rejections must carry a clear, field-naming error — these messages
     surface verbatim in [bor time --sample]'s usage report. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    nn = 0 || go 0
  in
  let rejected_with s part =
    match Sp.of_string s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error e ->
      if not (contains e part) then
        Alcotest.failf "%S: error %S does not mention %S" s e part
  in
  rejected_with "-1:10:100" "warmup";
  rejected_with "10:0:100" "window";
  rejected_with "10:-5:100" "window";
  rejected_with "10:10:19" "period";
  rejected_with "10:10:0" "period";
  rejected_with "10:10:-100" "period";
  (* warmup + window would overflow past the period check *)
  rejected_with (Printf.sprintf "%d:1:5" max_int) "period";
  rejected_with "10:10:100:-1" "seed";
  rejected_with "a:b:c" "integers";
  rejected_with "1:2" "WARMUP:WINDOW:PERIOD";
  (match Sp.make ~seed:(-3) ~warmup:10 ~window:10 ~period:100 () with
  | Ok _ -> Alcotest.fail "negative seed accepted by make"
  | Error e ->
    check Alcotest.bool "make names the seed" true (contains e "seed"));
  (* Boundary acceptances: period exactly warmup + window (zero slack),
     and the minimal 0:1:1 plan. *)
  check Alcotest.int "tight period accepted" 0 (Sp.slack (plan_exn "10:10:20"));
  check Alcotest.string "minimal plan" "0:1:1" (Sp.to_string (plan_exn "0:1:1"))

(* The selection knobs ride in the plan and pass the same validator.
   K is bounded: the ranked-set selector buffers K captured
   checkpoints before it picks one, so an unbounded K from the wire
   would be an unbounded heap. The schedule string stays K- and
   target-free; only the key lines name them. *)
let test_plan_selection_knobs () =
  let p = plan_exn "200:100:2000:3" in
  check Alcotest.int "parsed plans are fixed-period" 1 p.Sp.rank_bands;
  check (Alcotest.float 0.) "parsed plans never stop" 0. p.Sp.ci_target;
  let knobs ?rank_bands ?ci_target () =
    Sp.with_selection ?rank_bands ?ci_target p
  in
  List.iter
    (fun k ->
      check Alcotest.bool (Printf.sprintf "K=%d refused" k) true
        (Result.is_error (knobs ~rank_bands:k ())))
    [ 0; -1; Sp.max_rank_bands + 1; 1_000_000 ];
  check Alcotest.int "the bound is the --domains ceiling" 64 Sp.max_rank_bands;
  match knobs ~rank_bands:Sp.max_rank_bands ~ci_target:2.5 () with
  | Error e -> Alcotest.fail e
  | Ok q ->
    check Alcotest.string "schedule only" "200:100:2000:3" (Sp.to_string q);
    check Alcotest.(list string) "key lines"
      [ "plan=200:100:2000:3"; "rank_bands=64"; "ci_target=2.500000" ]
      (Sp.key_lines (Some q));
    check Alcotest.(list string) "default knobs add no key line"
      [ "plan=200:100:2000:3" ] (Sp.key_lines (Some p));
    check Alcotest.(list string) "no plan" [ "plan=-" ] (Sp.key_lines None);
    check Alcotest.bool "-0 folds into the default" true
      (match knobs ~ci_target:(-0.) () with
      | Ok z -> z = p && 1. /. z.Sp.ci_target > 0.
      | Error _ -> false)

let test_plan_phase_stream () =
  (* Seeded streams are deterministic, bounded by the slack, and two
     streams from the same plan agree; the unseeded stream pins every
     window to the period start. *)
  let p = plan_exn "10:10:100:42" in
  let slack = Sp.slack p in
  let s1 = Sp.phase_stream p and s2 = Sp.phase_stream p in
  let distinct = ref 0 in
  let prev = ref (-1) in
  for _ = 1 to 500 do
    let a = s1 () in
    check Alcotest.int "same seed, same stream" a (s2 ());
    if a < 0 || a > slack then
      Alcotest.failf "offset %d outside [0, %d]" a slack;
    if a <> !prev then incr distinct;
    prev := a
  done;
  check Alcotest.bool "stream actually varies" true (!distinct > 10);
  let unseeded = Sp.phase_stream (plan_exn "10:10:100") in
  for _ = 1 to 10 do
    check Alcotest.int "unseeded offsets are zero" 0 (unseeded ())
  done

let test_plan_estimate_hand_vectors () =
  let feq = Alcotest.float 1e-9 in
  (* Three windows at CPI 1, 2, 3 over 100 instructions: mean 2, sample
     stddev 1, so the 95% half-width is 1.96 / sqrt 3. *)
  let e = Sp.estimate ~cpi_samples:[ 1.; 2.; 3. ] ~instructions:100 in
  check Alcotest.int "windows" 3 e.Sp.windows;
  check feq "mean" 2.0 e.Sp.cpi_mean;
  check feq "ci95" (1.96 /. sqrt 3.) e.Sp.cpi_ci95;
  check feq "cycles" 200.0 e.Sp.cycles_estimate;
  (* A single window has no variance estimate: the half-width is 0. *)
  let one = Sp.estimate ~cpi_samples:[ 5.0 ] ~instructions:7 in
  check Alcotest.int "single window" 1 one.Sp.windows;
  check feq "single ci95" 0.0 one.Sp.cpi_ci95;
  check feq "single cycles" 35.0 one.Sp.cycles_estimate;
  (* No windows at all: the zero estimate, not an exception. *)
  let z = Sp.estimate ~cpi_samples:[] ~instructions:1000 in
  check Alcotest.int "no windows" 0 z.Sp.windows;
  check feq "zero mean" 0.0 z.Sp.cpi_mean;
  check feq "zero cycles" 0.0 z.Sp.cycles_estimate

(* ----------------------------------------------- Warming equivalence *)

let test_state_digests_track_state () =
  (* Cache digests depend on the resident lines, not the order they
     became resident (LRU recency is deliberately excluded). *)
  let mk () = Bor_uarch.Cache.create ~size:1024 ~assoc:2 ~line_bytes:64 () in
  let a = mk () and b = mk () in
  ignore (Bor_uarch.Cache.access a 0x100);
  ignore (Bor_uarch.Cache.access a 0x400);
  ignore (Bor_uarch.Cache.access b 0x400);
  ignore (Bor_uarch.Cache.access b 0x100);
  check Alcotest.string "resident set, either order"
    (Bor_uarch.Cache.state_digest a)
    (Bor_uarch.Cache.state_digest b);
  ignore (Bor_uarch.Cache.access a 0x800);
  check Alcotest.bool "new line changes the digest" false
    (Bor_uarch.Cache.state_digest a = Bor_uarch.Cache.state_digest b);
  let p = Bor_uarch.Predictor.create Bor_uarch.Config.default in
  let d0 = Bor_uarch.Predictor.state_digest p in
  let pr = Bor_uarch.Predictor.predict p ~pc:0x40 in
  Bor_uarch.Predictor.update p ~pc:0x40 pr ~taken:true;
  check Alcotest.bool "predictor update changes the digest" false
    (d0 = Bor_uarch.Predictor.state_digest p);
  let btb = Bor_uarch.Btb.create ~entries:64 () in
  let d0 = Bor_uarch.Btb.state_digest btb in
  Bor_uarch.Btb.insert btb ~pc:0x40 ~target:0x100;
  check Alcotest.bool "btb insert changes the digest" false
    (d0 = Bor_uarch.Btb.state_digest btb);
  let ras = Bor_uarch.Ras.create ~entries:8 in
  let d0 = Bor_uarch.Ras.state_digest ras in
  Bor_uarch.Ras.push ras 0x44;
  check Alcotest.bool "ras push changes the digest" false
    (d0 = Bor_uarch.Ras.state_digest ras)

(* A program the full-detail pipeline executes without a single
   discarded fetch: straight-line unrolled work, never-taken branches
   (cold two-bit counters start weakly not-taken, and a branch that
   never takes keeps them there — and never enters the BTB), calls and
   returns (the RAS predicts every return), and branch-on-randoms at
   the rarest frequency (asserted untaken). On such a program fetch
   touches exactly the committed path, so functional warming must
   leave the caches, predictor, BTB, RAS and LFSR in {e identical}
   states to the full-detail run — checked below digest-for-digest. *)
let straightline_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "main:   la   s2, buf\n";
  Buffer.add_string b "        li   t0, 3\n        li   t1, 11\n";
  for i = 0 to 63 do
    Printf.bprintf b "        addi t0, t0, %d\n" (1 + (i land 7));
    Printf.bprintf b "        sw   t0, %d(s2)\n" (4 * (i land 31));
    Printf.bprintf b "        lw   t1, %d(s2)\n" (4 * ((i + 5) land 31));
    if i land 1 = 0 then Buffer.add_string b "        bne  t0, t0, out\n"
    else Buffer.add_string b "        blt  t1, t1, out\n";
    if i land 7 = 3 then Buffer.add_string b "        call leaf\n";
    if i land 15 = 9 then Buffer.add_string b "        brr  #15, out\n"
  done;
  Buffer.add_string b "out:    halt\n";
  Buffer.add_string b "leaf:   xor  t2, t0, t1\n        ret\n";
  Buffer.add_string b "        .data\nbuf:    .space 256\n";
  Buffer.contents b

let test_warming_matches_full_detail () =
  let p = assemble straightline_src in
  let config =
    { Bor_uarch.Config.default with Bor_uarch.Config.deterministic_lfsr = true }
  in
  let detail, st = run_pipeline ~config p in
  (* Preconditions making digest equality the honest claim: nothing was
     fetched beyond the committed path. *)
  check Alcotest.int "no cond mispredicts" 0 st.cond_mispredicts;
  check Alcotest.int "no return mispredicts" 0 st.return_mispredicts;
  check Alcotest.int "no backend flushes" 0 st.backend_flushes;
  check Alcotest.int "no frontend flushes" 0 st.frontend_flushes;
  check Alcotest.int "no squashed instructions" 0 st.squashed;
  check Alcotest.int "no brr takes" 0 st.brr_taken;
  (* ...while still exercising every warmed structure. *)
  check Alcotest.int "cond branches retired" 64 st.cond_branches;
  check Alcotest.int "brrs retired" 4 st.brr_executed;
  check Alcotest.bool "returns retired" true (st.returns > 0);
  check Alcotest.bool "code spans several icache lines" true
    (st.l1i_misses > 4);
  let warm = Bor_uarch.Pipeline.create ~config p in
  let steps = Bor_uarch.Pipeline.run_warming warm in
  check Alcotest.int "warming executes the same instruction count"
    st.instructions steps;
  check
    Alcotest.(list (pair string string))
    "warmed state = full-detail state"
    (Bor_uarch.Pipeline.state_digests detail)
    (Bor_uarch.Pipeline.state_digests warm)

(* Batched warming ([run_warming]: the block cache, MRU dedup)
   against the same program warmed one instruction at a time
   ([warm_step]) — on branchy, loopy code where the batching machinery
   actually triggers. Every structure digest and the final
   architectural state must agree. *)
let test_warming_batching_equivalence () =
  let src =
    {|
main:   la   s2, buf
        li   s1, 60
loop:   andi t0, s1, 3
        bne  t0, zero, odd
        addi t3, t3, 5
        j    join
odd:    sub  t3, t3, s1
join:   sw   t3, 0(s2)
        lw   t4, 4(s2)
        brr  #1, skipc
        call leaf
skipc:  addi s1, s1, -1
        bne  s1, zero, loop
        halt
leaf:   xor  t5, t3, s1
        ret
        .data
buf:    .space 64
      |}
  in
  let p = assemble src in
  let batched = Bor_uarch.Pipeline.create p in
  let nb = Bor_uarch.Pipeline.run_warming batched in
  let stepped = Bor_uarch.Pipeline.create p in
  let ns = ref 0 in
  while not (Bor_sim.Machine.halted (Bor_uarch.Pipeline.oracle stepped)) do
    Bor_uarch.Block.warm_step (Bor_uarch.Pipeline.warm stepped);
    incr ns
  done;
  check Alcotest.int "same instruction count" nb !ns;
  check
    Alcotest.(list (pair string string))
    "batched = single-stepped"
    (Bor_uarch.Pipeline.state_digests batched)
    (Bor_uarch.Pipeline.state_digests stepped);
  let ob = Bor_uarch.Pipeline.oracle batched
  and os = Bor_uarch.Pipeline.oracle stepped in
  for i = 0 to Bor_isa.Reg.count - 1 do
    let r = Bor_isa.Reg.of_int i in
    check Alcotest.int (Bor_isa.Reg.name r) (Bor_sim.Machine.reg ob r)
      (Bor_sim.Machine.reg os r)
  done

(* ------------------------------------------- Block translation cache *)

(* A branchy, loopy, store-heavy program with a marker in the hot
   loop: the marker is uncompilable, so block-mode warming has to mix
   compiled blocks with single-step fallbacks on every pass. *)
let blocky_src =
  {|
main:   la   s2, buf
        li   s1, 97
loop:   andi t0, s1, 7
        bne  t0, zero, odd
        addi t3, t3, 11
        marker 7
        j    join
odd:    sub  t3, t3, s1
        sll  t4, t3, t0
join:   sw   t3, 0(s2)
        lw   t4, 4(s2)
        sw   t4, 8(s2)
bsite:  brr  #2, skipc
        call leaf
skipc:  addi s1, s1, -1
        bne  s1, zero, loop
        halt
leaf:   xor  t5, t3, s1
        addi t6, t5, 1
        ret
        .data
buf:    .space 64
      |}

let warm_cfg block =
  { Bor_uarch.Config.default with Bor_uarch.Config.warm_block_cache = block }

let oracle_regs t =
  let m = Bor_uarch.Pipeline.oracle t in
  Array.init Bor_isa.Reg.count (fun i ->
      Bor_sim.Machine.reg m (Bor_isa.Reg.of_int i))

(* Warm two pipelines over the same program, one through the block
   translation cache and one forced onto the single-step reference
   path, cycling [budgets] as [max_steps] increments. Instruction
   counts must agree at every budget boundary (budget exactness: an
   overshooting block is single-stepped, so both paths stop on the
   same instruction) and the warmed digests and architectural
   registers at the end. Returns the block-mode pipeline for further
   assertions. *)
let assert_block_equivalence ?(budgets = [ max_int ]) src =
  let p = assemble src in
  let blocked = Bor_uarch.Pipeline.create ~config:(warm_cfg true) p in
  let stepped = Bor_uarch.Pipeline.create ~config:(warm_cfg false) p in
  let halted t = Bor_sim.Machine.halted (Bor_uarch.Pipeline.oracle t) in
  let nb = ref 0 and ns = ref 0 in
  let bs = ref [] in
  while not (halted blocked) do
    (match !bs with [] -> bs := budgets | _ -> ());
    let b = List.hd !bs in
    bs := List.tl !bs;
    nb := !nb + Bor_uarch.Pipeline.run_warming ~max_steps:b blocked;
    ns := !ns + Bor_uarch.Pipeline.run_warming ~max_steps:b stepped;
    check Alcotest.int "counts agree at every budget boundary" !nb !ns
  done;
  check Alcotest.bool "single-step run also halted" true (halted stepped);
  check
    Alcotest.(list (pair string string))
    "block-warmed = single-stepped" (Bor_uarch.Pipeline.state_digests blocked)
    (Bor_uarch.Pipeline.state_digests stepped);
  check
    Alcotest.(array int)
    "architectural registers" (oracle_regs blocked) (oracle_regs stepped);
  blocked

let block_stats t =
  match Bor_uarch.Pipeline.block_cache t with
  | Some bc -> Bor_uarch.Block.stats bc
  | None -> Alcotest.fail "block cache was never created"

let test_block_warming_equivalence () =
  let blocked = assert_block_equivalence blocky_src in
  let s = block_stats blocked in
  check Alcotest.bool "blocks compiled" true (s.Bor_uarch.Block.compiled > 0);
  check Alcotest.bool "blocks reused" true
    (s.Bor_uarch.Block.hits > s.Bor_uarch.Block.compiled);
  check Alcotest.bool "marker forced single-step fallbacks" true
    (s.Bor_uarch.Block.fallback_steps > 0)

(* Both warming paths count mispredicts in one field of the warm-state
   record through one warm-branch step, so block mode and single-step
   agree — on conditional branches alone, and with branch-on-random in
   the predictor (the §3.3 pollution ablation). *)
let test_block_mispredicts_agree () =
  let p = assemble blocky_src in
  let mispredicts ~block brr_in_predictor =
    let config = { (warm_cfg block) with Bor_uarch.Config.brr_in_predictor } in
    let t = Bor_uarch.Pipeline.create ~config p in
    ignore (Bor_uarch.Pipeline.run_warming t);
    (Bor_uarch.Pipeline.warm t).mispredicts
  in
  List.iter
    (fun brr_in_predictor ->
      let blocked = mispredicts ~block:true brr_in_predictor in
      check Alcotest.bool "mispredicts counted" true (blocked > 0);
      check Alcotest.int "block cache = single-stepped" blocked
        (mispredicts ~block:false brr_in_predictor))
    [ false; true ]

(* Only the detailed core fires trace events: warming a brr loop to
   halt on either path fires none. *)
let test_warming_fires_no_trace_events () =
  let p =
    assemble
      {|
main:   li   t0, 300
loop:   brr  1/16, skip
        addi t1, t1, 1
skip:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
|}
  in
  List.iter
    (fun block ->
      let t = Bor_uarch.Pipeline.create ~config:(warm_cfg block) p in
      let events = ref 0 in
      Bor_uarch.Pipeline.set_tracer t (fun _ -> incr events);
      ignore (Bor_uarch.Pipeline.run_warming t);
      check Alcotest.bool "warmed to halt" true
        (Bor_sim.Machine.halted (Bor_uarch.Pipeline.oracle t));
      check Alcotest.int
        (Printf.sprintf "block=%b: no trace events" block)
        0 !events)
    [ true; false ]

(* Irregular step budgets, including 1, primes and a budget larger
   than most blocks — every boundary lands mid-block somewhere. *)
let test_block_budget_exactness () =
  ignore
    (assert_block_equivalence
       ~budgets:[ 1; 2; 3; 5; 7; 11; 13; 97; 1; 64 ]
       blocky_src)

(* A store landing in the text range must flush the cache. The decoded
   image cannot actually change — the oracle fetches instructions from
   its decoded array, not from memory — but the contract is
   deliberately conservative, and the single-step path shares it, so
   the flush has to be invisible in the warmed state. *)
let test_block_store_invalidation () =
  let src =
    {|
main:   la   s2, main
        la   s3, buf
        li   s1, 12
loop:   sw   t0, 0(s2)
        addi t0, t0, 3
        sw   t0, 0(s3)
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
        .data
buf:    .space 16
      |}
  in
  let blocked = assert_block_equivalence src in
  check Alcotest.bool "text-range stores flushed the cache" true
    ((block_stats blocked).Bor_uarch.Block.invalidations >= 1)

(* [patch_brr_freq] bumps the machine's code generation; the cache
   must drop every block at its next entry. Warming behavior is
   unchanged either way — both warming paths decode the
   branch-on-random's frequency from the pipeline's own decoded text,
   which patching the machine's image does not touch — so the flush
   must both fire and stay invisible. *)
let test_block_codegen_invalidation () =
  let p = assemble blocky_src in
  let pc =
    match Bor_isa.Program.find_symbol p "bsite" with
    | Some pc -> pc
    | None -> Alcotest.fail "bsite label not found"
  in
  let run block =
    let t = Bor_uarch.Pipeline.create ~config:(warm_cfg block) p in
    let n0 = Bor_uarch.Pipeline.run_warming ~max_steps:50 t in
    Bor_sim.Machine.patch_brr_freq
      (Bor_uarch.Pipeline.oracle t)
      ~pc
      (Bor_core.Freq.of_period 2);
    let n1 = Bor_uarch.Pipeline.run_warming t in
    (t, n0 + n1)
  in
  let blocked, nb = run true in
  let stepped, ns = run false in
  check Alcotest.int "same instruction count" nb ns;
  check
    Alcotest.(list (pair string string))
    "patched runs agree"
    (Bor_uarch.Pipeline.state_digests blocked)
    (Bor_uarch.Pipeline.state_digests stepped);
  check Alcotest.bool "the patch flushed the cache" true
    ((block_stats blocked).Bor_uarch.Block.invalidations >= 1)

(* Site hooks send warming onto the single-step path, which must fire
   them before every instruction as [Machine.step] does, whatever the
   kind: a register op, a load, a store, a call, a branch and a
   return, on both warming configurations. *)
let test_warming_fires_site_hooks () =
  let p =
    assemble
      {|
main:   li   s1, 50
        la   s2, buf
loop:   site 1
        addi t0, t0, 1
        site 2
        lw   t1, 0(s2)
        site 3
        sw   t0, 4(s2)
        site 4
        call leaf
        site 5
        addi s1, s1, -1
        site 6
        bne  s1, zero, loop
        halt
leaf:   xor  t2, t0, t1
        site 7
        ret
        .data
buf:    .space 16
      |}
  in
  let counts_of m run =
    let counts = Array.make 8 0 in
    Bor_sim.Machine.on_site m (fun id -> counts.(id) <- counts.(id) + 1);
    run ();
    Array.to_list counts
  in
  let m = Bor_sim.Machine.create p in
  let functional =
    counts_of m (fun () ->
        match Bor_sim.Machine.run m with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  check Alcotest.(list int) "functional counts"
    [ 0; 50; 50; 50; 50; 50; 50; 50 ] functional;
  List.iter
    (fun block ->
      let t = Bor_uarch.Pipeline.create ~config:(warm_cfg block) p in
      let warmed =
        counts_of (Bor_uarch.Pipeline.oracle t) (fun () ->
            ignore (Bor_uarch.Pipeline.run_warming t))
      in
      check Alcotest.(list int)
        (Printf.sprintf "block=%b: warmed = functional" block)
        functional warmed)
    [ true; false ]

(* warming.block.* is published from [Block.stats] at every exit of
   [run_warming]: after each [max_steps] slice the registry equals the
   stats field for field, never double-counting across slices. The
   program stores into its own text (invalidations) and reads the LFSR
   (uncompilable, so fallback steps). *)
let test_block_telemetry_matches_stats () =
  let src =
    {|
main:   la   s2, main
        li   s1, 300
loop:   sw   t0, 0(s2)
        addi t0, t0, 3
        rdlfsr t1
        xor  t0, t0, t1
        andi t2, s1, 7
        bne  t2, zero, skip
        addi t3, t3, 1
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
      |}
  in
  with_telemetry (fun () ->
      let t =
        Bor_uarch.Pipeline.create ~config:(warm_cfg true) (assemble src)
      in
      let halted () = Bor_sim.Machine.halted (Bor_uarch.Pipeline.oracle t) in
      let slices = ref 0 in
      while not (halted ()) do
        ignore (Bor_uarch.Pipeline.run_warming ~max_steps:37 t);
        incr slices;
        let s = block_stats t in
        check
          Alcotest.(list (pair string int))
          (Printf.sprintf "warming.block.* after slice %d" !slices)
          [
            ("warming.block.compiled", s.Bor_uarch.Block.compiled);
            ("warming.block.fallback_steps", s.Bor_uarch.Block.fallback_steps);
            ("warming.block.hits", s.Bor_uarch.Block.hits);
            ("warming.block.instructions", s.Bor_uarch.Block.block_instructions);
            ("warming.block.invalidations", s.Bor_uarch.Block.invalidations);
          ]
          (registered_with ~prefix:"warming.block.")
      done;
      let s = block_stats t in
      check Alcotest.bool "several slices" true (!slices > 10);
      check Alcotest.bool "text stores invalidated" true
        (s.Bor_uarch.Block.invalidations > 1);
      check Alcotest.bool "rdlfsr fell back" true
        (s.Bor_uarch.Block.fallback_steps > 0);
      check Alcotest.bool "blocks ran" true (s.Bor_uarch.Block.hits > 0))

(* ----------------------------------------------- create ~reuse *)

(* Dirties everything a retired pipeline hands on: it stores into its
   own text and over 16 KiB above its data segment, trains the
   predictor on a data-dependent branch and fills the caches. Then a
   run of independent loads that miss to memory fills the ROB, and a
   call chain 40 deep (past the 32-entry RAS) halts without returning,
   so the ROB and fetch-queue rings and their RAS snapshots are all
   left holding stale entries. *)
let reuse_dirty_src =
  {|
main:   la   s2, main
        la   s3, buf
        li   t4, 65536
        add  s3, s3, t4
        li   s1, 4096
loop:   sw   s1, 0(s2)
        slli t1, s1, 2
        add  t2, s3, t1
        sw   s1, 0(t2)
        andi t3, s1, 5
        bne  t3, zero, skip
        jal  leaf
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        add  s6, s3, t4
        add  s6, s6, t4
        li   s1, 200
fill:   lw   t0, 0(s6)
        addi s6, s6, 64
        addi s1, s1, -1
        bne  s1, zero, fill
        li   s7, 40
deep:   addi s7, s7, -1
        beq  s7, zero, done
        jal  deep
done:   halt
leaf:   addi t5, t5, 1
        ret
        .data
buf:    .space 64
|}

(* Reads back the region the dirtying program wrote (zero on a fresh
   memory) and branches on it, so an unscrubbed memory, an untrained
   predictor or a warm cache would each change what it measures. A
   line-strided walk over 192 KiB forces L1 evictions, so stale LRU
   stamps would change victims too. *)
let reuse_probe_src =
  {|
main:   la   s3, buf
        li   t4, 65536
        add  s3, s3, t4
        add  s6, s3, t4
        li   s1, 3000
loop:   andi t1, s1, 2047
        slli t1, t1, 2
        add  t2, s3, t1
        lw   t0, 0(t2)
        add  s4, s4, t0
        slli t6, s1, 6
        add  t6, s6, t6
        lw   t7, 0(t6)
        bne  t0, zero, odd
        andi t3, s1, 7
        bne  t3, zero, skip
        jal  leaf
        j    skip
odd:    addi s5, s5, 1
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
leaf:   addi t5, t5, 1
        ret
        .data
buf:    .space 64
|}

let small_cfg =
  { Bor_uarch.Config.default with bimodal_entries = 1024; l2_size = 256 * 1024 }

let ring_cfg =
  { Bor_uarch.Config.default with
    rob_entries = 40; fetch_queue = 8; ras_entries = 16; btb_entries = 256 }

(* [create ~reuse:old] must be indistinguishable from a fresh [create]
   whatever [old] ran: the same warmed-state digests before and after a
   run, the same stats and cycles, the same final registers and the
   same telemetry registry — also when [old]'s geometry differs and the
   mismatched tables are allocated afresh. The memory is always the
   retired one. *)
let test_create_reuse_matches_fresh () =
  let probe = assemble reuse_probe_src in
  let measure make =
    with_telemetry (fun () ->
        let t = make () in
        let before = Bor_uarch.Pipeline.state_digests t in
        match Bor_uarch.Pipeline.run t with
        | Error e -> Alcotest.fail e
        | Ok st ->
          ( t,
            ( before,
              st,
              Bor_uarch.Pipeline.cycle t,
              Bor_uarch.Pipeline.state_digests t,
              oracle_regs t,
              Bor_telemetry.Json.to_string (Telemetry.to_json ()) ) ))
  in
  List.iter
    (fun (what, old_config, config) ->
      let old =
        Bor_uarch.Pipeline.create ~config:old_config
          (assemble reuse_dirty_src)
      in
      (match Bor_uarch.Pipeline.run old with
      | Ok st ->
        check Alcotest.bool (what ^ ": dirtied") true (st.cond_mispredicts > 0);
        check Alcotest.bool (what ^ ": ROB filled") true (st.cycles_rob_full > 0)
      | Error e -> Alcotest.fail e);
      check Alcotest.int (what ^ ": RAS full") old_config.ras_entries
        (Bor_uarch.Ras.depth (Bor_uarch.Pipeline.warm old).ras);
      let _, (fb, fst_, fc, fa, fr, fj) =
        measure (fun () -> Bor_uarch.Pipeline.create ~config probe)
      in
      let t, (rb, rst, rc, ra, rr, rj) =
        measure (fun () -> Bor_uarch.Pipeline.create ~config ~reuse:old probe)
      in
      let oracle_mem p = Bor_sim.Machine.memory (Bor_uarch.Pipeline.oracle p) in
      check Alcotest.bool (what ^ ": memory reused") true
        (oracle_mem t == oracle_mem old);
      let digests = Alcotest.(list (pair string string)) in
      check digests (what ^ ": digests at create") fb rb;
      check Alcotest.bool (what ^ ": stats") true (fst_ = rst);
      check Alcotest.int (what ^ ": cycles") fc rc;
      check digests (what ^ ": digests after the run") fa ra;
      check Alcotest.(array int) (what ^ ": registers") fr rr;
      check Alcotest.int (what ^ ": probe read zeros") 0
        rr.(Bor_isa.Reg.to_int (Bor_isa.Reg.s 4));
      check Alcotest.string (what ^ ": telemetry registry") fj rj)
    [
      ("same geometry", Bor_uarch.Config.default, Bor_uarch.Config.default);
      ("smaller retired geometry", small_cfg, Bor_uarch.Config.default);
      ("larger retired geometry", Bor_uarch.Config.default, small_cfg);
      ("other ring and RAS sizes", ring_cfg, Bor_uarch.Config.default);
      ("retired into other ring sizes", Bor_uarch.Config.default, ring_cfg);
    ]

(* With telemetry off, as in every opt filter and oracle run, a reuse
   refills the retired buffers and allocates only the records around
   them and the two instruction rings, which are always new: under
   1,000 words, where rebuilding the rings and RAS snapshots cost over
   16k. *)
let test_create_reuse_allocates_records_only () =
  let probe = assemble reuse_probe_src in
  let (), _ =
    Telemetry.isolated ~enabled:false (fun () ->
        let p = ref (Bor_uarch.Pipeline.create (assemble reuse_dirty_src)) in
        ignore (Bor_uarch.Pipeline.run !p);
        p := Bor_uarch.Pipeline.create ~reuse:!p probe;
        let n = 200 in
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          p := Bor_uarch.Pipeline.create ~reuse:!p probe
        done;
        let per_call = (Gc.minor_words () -. w0) /. Float.of_int n in
        if per_call >= 1000. then
          Alcotest.failf "create ~reuse allocates %.0f minor words per call"
            per_call)
  in
  ()

(* Resolved in the back end (the section 3.3 ablation), branch-on-randoms
   enter the ROB past its full gate, so a run of them behind a load that
   misses to memory outgrows the ring and the ROB doubles in place, handing its RAS snapshot buffers to the new slots.
   Under the sanitizer (on here) the heavy tier checks that each buffer
   stays with exactly one slot; it runs every 1024th simulated cycle that
   is not skipped, hence the 300 iterations. Calls and returns in the
   loop keep the snapshots in use. *)
let test_rob_growth_keeps_ras_buffers () =
  let brrs = String.concat "" (List.init 40 (fun _ -> "        brr  1/65536, tgt\n")) in
  let src =
    {|
main:   la   s3, buf
        li   t4, 65536
        add  s3, s3, t4
        li   s1, 300
        li   t5, 4096
loop:   lw   t0, 0(s3)
        add  s3, s3, t5
|}
    ^ brrs
    ^ {|tgt:    jal  leaf
        addi s1, s1, -1
        bne  s1, zero, loop
        halt
leaf:   ret
        .data
buf:    .space 64
|}
  in
  let config =
    { Bor_uarch.Config.default with rob_entries = 4; brr_resolve_in_backend = true }
  in
  let was = !Bor_check.Check.on in
  Bor_check.Check.on := true;
  Fun.protect
    ~finally:(fun () -> Bor_check.Check.on := was)
    (fun () ->
      with_telemetry (fun () ->
          let _, st = run_pipeline ~config (assemble src) in
          check Alcotest.int "every brr retired" (300 * 40) st.brr_executed;
          let occupancy =
            match Telemetry.to_json () with
            | Bor_telemetry.Json.Obj fields -> (
              match List.assoc_opt "pipeline.rob.occupancy" fields with
              | Some (Bor_telemetry.Json.Obj h) -> List.assoc_opt "max" h
              | _ -> None)
            | _ -> None
          in
          match occupancy with
          | Some (Bor_telemetry.Json.Int n) ->
            check Alcotest.bool
              (Printf.sprintf "ROB grew past its 8 slots (max %d)" n)
              true (n > 8)
          | _ -> Alcotest.fail "no rob.occupancy histogram"))

(* ---------------------------------------------- Sampled acceptance *)

(* The headline acceptance property, as a regression test: on real
   experiment kernels the default plan's extrapolated cycles stay
   within 2% of the full-detail run and the 95% confidence interval
   covers the full-detail CPI. Everything here is deterministic (fixed
   phase seed, deterministic simulator), so these are exact-repeatable
   checks, not flaky statistics; EXPERIMENTS.md records the same plan
   across all ten kernels. *)
let test_sampled_acceptance () =
  let plan = plan_exn "2000:1000:200000:13" in
  let brr64 =
    Bor_minic.Instrument.(
      Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))
  in
  let kernels =
    [
      ( "micro-200000",
        (Bor_workload.Micro.compile ~chars:200_000 brr64)
          .Bor_minic.Driver.program );
      ("jython", (Bor_workload.Apps.compile "jython" brr64).Bor_minic.Driver.program);
      ("xalan", (Bor_workload.Apps.compile "xalan" brr64).Bor_minic.Driver.program);
    ]
  in
  List.iter
    (fun (name, prog) ->
      let _, st = run_pipeline prog in
      let full_cycles = Float.of_int st.Bor_uarch.Pipeline.cycles in
      let full_cpi = full_cycles /. Float.of_int st.instructions in
      let s = Bor_uarch.Pipeline.create prog in
      let sp =
        match Bor_exec.Sampled.run_on ~plan s with
        | Ok sp -> sp
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      check Alcotest.bool
        (Printf.sprintf "%s: several windows" name)
        true
        (sp.Bor_exec.Sampled.sp_windows >= 2);
      (* The default config keeps the paper's lossy LFSR clocking, so
         the branch-on-random outcome stream — and with it the dynamic
         instruction count — differs microscopically between the
         full-detail and sampled runs (the engine is clocked on
         different schedules). Demand agreement to 0.1%, not
         equality. *)
      let open Bor_exec.Sampled in
      let drift =
        Float.abs (Float.of_int (sp.sp_instructions - st.instructions))
        /. Float.of_int st.instructions
      in
      if drift > 0.001 then
        Alcotest.failf "%s: instruction count drift %.4f%%" name
          (100. *. drift);
      let err =
        (sp.sp_cycles_estimate -. full_cycles) /. full_cycles
      in
      if Float.abs err > 0.02 then
        Alcotest.failf "%s: cycle estimate off by %.2f%% (>2%%)" name
          (100. *. err);
      if Float.abs (sp.sp_cpi -. full_cpi) > sp.sp_cpi_ci95 then
        Alcotest.failf "%s: 95%% CI [%f +/- %f] misses full CPI %f" name
          sp.sp_cpi sp.sp_cpi_ci95 full_cpi)
    kernels

let () =
  Alcotest.run "bor_uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "geometry" `Quick test_cache_geometry_checks;
          Alcotest.test_case "hierarchy latencies" `Quick
            test_hierarchy_latencies;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 35 |])
            prop_cache_matches_reference;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "learns bias" `Quick test_predictor_learns_bias;
          Alcotest.test_case "learns alternation" `Quick
            test_predictor_learns_alternation;
          Alcotest.test_case "history recovery" `Quick
            test_predictor_history_recovery;
        ] );
      ( "btb-ras",
        [
          Alcotest.test_case "btb" `Quick test_btb;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 36 |])
            prop_btb_matches_reference;
          Alcotest.test_case "ras" `Quick test_ras;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "architectural equivalence" `Quick
            test_pipeline_architectural_equivalence;
          Alcotest.test_case "ipc bounds" `Quick test_pipeline_ipc_bounds;
          Alcotest.test_case "mispredict penalty" `Quick
            test_pipeline_mispredict_penalty;
          Alcotest.test_case "brr committed at decode" `Quick
            test_brr_committed_at_decode;
          Alcotest.test_case "brr taken = frontend flush" `Quick
            test_brr_taken_frontend_flush;
          Alcotest.test_case "telemetry matches stats" `Quick
            test_telemetry_matches_stats;
          Alcotest.test_case "telemetry exit paths" `Quick
            test_telemetry_exit_paths;
          Alcotest.test_case "roi markers" `Quick test_roi_markers;
          Alcotest.test_case "trace events" `Quick test_trace_events;
          Alcotest.test_case "dependent-miss latency" `Quick
            test_memory_latency_dominates_dependent_misses;
          Alcotest.test_case "rob limits mlp" `Quick test_rob_limits_mlp;
          Alcotest.test_case "i-cache pressure" `Quick test_icache_pressure;
          Alcotest.test_case "RAS return prediction" `Quick
            test_ras_predicts_returns;
          Alcotest.test_case "shared-LFSR arbitration (footnote 3)" `Quick
            test_lfsr_port_arbitration;
        ] );
      ( "ablations (§3.3)",
        [
          Alcotest.test_case "backend resolution costs more" `Quick
            test_backend_resolution_costs_more;
          Alcotest.test_case "predictor ablation, same semantics" `Quick
            test_predictor_ablation_preserves_semantics;
        ] );
      ( "determinism (§3.4)",
        [
          Alcotest.test_case "checkpointed runs repeat" `Quick
            test_deterministic_lfsr_repeatable;
          Alcotest.test_case "checkpointed = functional" `Quick
            test_deterministic_matches_functional;
          Alcotest.test_case "minic differential = functional" `Quick
            test_minic_differential_matches_functional;
          Alcotest.test_case "tracer carries the brr stream" `Quick
            test_tracer_carries_brr_stream;
          Alcotest.test_case "lossy preserves rates" `Quick
            test_nondeterministic_loses_transitions;
        ] );
      ( "sampling plan",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_plan_rejects_malformed;
          Alcotest.test_case "edge cases and error clarity" `Quick
            test_plan_edge_cases;
          Alcotest.test_case "selection knobs" `Quick test_plan_selection_knobs;
          Alcotest.test_case "phase stream" `Quick test_plan_phase_stream;
          Alcotest.test_case "estimate hand vectors" `Quick
            test_plan_estimate_hand_vectors;
        ] );
      ( "warming",
        [
          Alcotest.test_case "digests track state" `Quick
            test_state_digests_track_state;
          Alcotest.test_case "warming = full detail (no wrong path)" `Quick
            test_warming_matches_full_detail;
          Alcotest.test_case "batched = single-stepped" `Quick
            test_warming_batching_equivalence;
          Alcotest.test_case "block cache = single-stepped" `Quick
            test_block_warming_equivalence;
          Alcotest.test_case "block cache budget exactness" `Quick
            test_block_budget_exactness;
          Alcotest.test_case "block cache mispredicts = single-stepped"
            `Quick test_block_mispredicts_agree;
          Alcotest.test_case "warming fires no trace events" `Quick
            test_warming_fires_no_trace_events;
          Alcotest.test_case "store into text flushes the cache" `Quick
            test_block_store_invalidation;
          Alcotest.test_case "code patch flushes the cache" `Quick
            test_block_codegen_invalidation;
          Alcotest.test_case "warming fires every site hook" `Quick
            test_warming_fires_site_hooks;
          Alcotest.test_case "telemetry matches block stats" `Quick
            test_block_telemetry_matches_stats;
          Alcotest.test_case "create ~reuse = fresh create" `Quick
            test_create_reuse_matches_fresh;
          Alcotest.test_case "create ~reuse allocates its records only" `Quick
            test_create_reuse_allocates_records_only;
          Alcotest.test_case "ROB growth keeps RAS buffers" `Quick
            test_rob_growth_keeps_ras_buffers;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "acceptance on experiment kernels" `Quick
            test_sampled_acceptance;
        ] );
    ]
