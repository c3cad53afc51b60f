(* Tests for Bor_exec: the unified execution backends, versioned
   digest-stamped checkpoints (round trips, corruption and version
   rejection — always [Error], never an exception) and sampled
   simulation on the window queue (statistics, telemetry, errors and
   final architectural state byte-identical at every domain count). *)

module Backend = Bor_exec.Backend
module Checkpoint = Bor_exec.Checkpoint
module Sampled = Bor_exec.Sampled
module Pipeline = Bor_uarch.Pipeline
module Region = Bor_uarch.Region
module Machine = Bor_sim.Machine
module Telemetry = Bor_telemetry.Telemetry
module Json = Bor_telemetry.Json

let check = Alcotest.check

let brr64 =
  Bor_minic.Instrument.(
    Sampled (Brr (Bor_core.Freq.of_period 64), No_duplication))

let micro_prog =
  lazy (Bor_workload.Micro.compile ~chars:60_000 brr64).Bor_minic.Driver.program

let alu_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 50000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program

let plan_exn ?rank_bands ?ci_target s =
  match
    Result.bind
      (Bor_uarch.Sampling_plan.of_string s)
      (Bor_uarch.Sampling_plan.with_selection ?rank_bands ?ci_target)
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* Warm a fresh pipeline partway into the program and capture it. *)
let warmed_checkpoint ?config ?(steps = 20_000) prog =
  let p = Pipeline.create ?config prog in
  ignore (Pipeline.run_warming ~max_steps:steps p);
  let digest = Checkpoint.program_digest prog in
  (p, digest, Checkpoint.capture ~program_digest:digest p)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ----------------------------------------------------- checkpoint *)

(* Tiny tables: cheap checkpoints, and a second geometry for the
   restore test. *)
let small_config =
  {
    Bor_uarch.Config.default with
    ghist_bits = 6;
    bimodal_entries = 64;
    btb_entries = 16;
    l1_size = 2048;
    l2_size = 8192;
  }

(* Restoring brings back the whole captured state: the digests, and
   also what they ignore by design (LRU stamps and clocks, RAS top and
   depth, the global history), since a capture of the restored
   pipeline serializes to the same bytes. *)
let test_restore_matches_capture config () =
  let prog = Lazy.force micro_prog in
  let src, digest, ck = warmed_checkpoint ~config prog in
  let dst = Pipeline.create ~config prog in
  (match Checkpoint.restore ck ~program_digest:digest dst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check
    Alcotest.(list (pair string string))
    "microarchitectural state digests"
    (Pipeline.state_digests src)
    (Pipeline.state_digests dst);
  check Alcotest.bool "capture of the restored pipeline = the checkpoint" true
    (Checkpoint.to_string (Checkpoint.capture ~program_digest:digest dst)
    = Checkpoint.to_string ck);
  let ms = Pipeline.oracle src and md = Pipeline.oracle dst in
  check Alcotest.int "pc" (Machine.pc ms) (Machine.pc md);
  for i = 0 to Bor_isa.Reg.count - 1 do
    let r = Bor_isa.Reg.of_int i in
    check Alcotest.int (Bor_isa.Reg.name r) (Machine.reg ms r)
      (Machine.reg md r)
  done;
  let db = prog.Bor_isa.Program.data_base in
  let mem_s = Machine.memory ms and mem_d = Machine.memory md in
  for i = 0 to Bytes.length prog.Bor_isa.Program.data - 1 do
    if
      Bor_sim.Memory.read_byte mem_s (db + i)
      <> Bor_sim.Memory.read_byte mem_d (db + i)
    then Alcotest.failf "data byte at offset %d differs after restore" i
  done

let test_resumed_run_deterministic () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let run () =
    match Backend.resume ck prog with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match b.Backend.run () with
      | Ok (Backend.Detailed st) ->
        (st, Pipeline.state_digests (Option.get b.Backend.pipeline))
      | Ok _ -> Alcotest.fail "resume reported a non-detailed result"
      | Error e -> Alcotest.fail e)
  in
  let st1, d1 = run () in
  let st2, d2 = run () in
  check Alcotest.bool "two resumes retire identical stats" true (st1 = st2);
  check
    Alcotest.(list (pair string string))
    "two resumes end in identical warmed state" d1 d2;
  check Alcotest.bool "the resumed run made progress" true
    (st1.Pipeline.instructions > 0)

(* A checkpoint taken after the program halted resumes into a pipeline
   with nothing left to run: no phantom fetch of the halt, and under
   the sanitizer the oracle balance holds. *)
let test_resume_after_halt () =
  let prog = Lazy.force alu_prog in
  let p = Pipeline.create prog in
  ignore (Pipeline.run_warming p);
  check Alcotest.bool "warmed to halt" true
    (Machine.halted (Pipeline.oracle p));
  let ck =
    Checkpoint.capture ~program_digest:(Checkpoint.program_digest prog) p
  in
  let prev = Bor_check.Check.enabled () in
  Bor_check.Check.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Bor_check.Check.set_enabled prev)
    @@ fun () ->
    match Backend.resume ck prog with
    | Error e -> Error e
    | Ok b -> b.Backend.run ()
  in
  match r with
  | Ok (Backend.Detailed st) ->
    check Alcotest.int "cycles" 0 st.Pipeline.cycles;
    check Alcotest.int "instructions" 0 st.Pipeline.instructions
  | Ok _ -> Alcotest.fail "resume reported a non-detailed result"
  | Error e -> Alcotest.fail e

let test_serialized_roundtrip () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let s = Checkpoint.to_string ck in
  (match Checkpoint.of_string s with
  | Error e -> Alcotest.fail e
  | Ok ck' ->
    check Alcotest.string "parse . print = identity" s
      (Checkpoint.to_string ck'));
  let tmp = Filename.temp_file "bor_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      (match Checkpoint.save_file tmp ck with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Checkpoint.load_file tmp with
      | Error e -> Alcotest.fail e
      | Ok ck' -> (
        check Alcotest.string "file round trip" s (Checkpoint.to_string ck');
        let dst = Pipeline.create prog in
        match
          Checkpoint.restore ck'
            ~program_digest:(Checkpoint.program_digest prog)
            dst
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail e))

(* [Checkpoint.of_string s] and the bytes it allocated. The decoder may
   allocate a small multiple of its input plus a fixed allowance (the
   dirty bitmap of the largest memory a checkpoint may claim is 64 KiB),
   whatever lengths the bytes claim. *)
let decode_counted s =
  (* Start from an empty minor heap: on OCaml 5.1 a minor collection
     inside the measured span inflates [Gc.allocated_bytes]. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = Checkpoint.of_string s in
  (r, Gc.allocated_bytes () -. before)

let allocation_bound s = float_of_int ((8 * String.length s) + (1 lsl 17))

(* A valid checkpoint is hashed where it lies: decoding allocates the
   state it returns, and no copy of its input on top. *)
let test_decode_allocates_once () =
  let _, _, ck = warmed_checkpoint (Lazy.force micro_prog) in
  let s = Checkpoint.to_string ck in
  match decode_counted s with
  | Error e, _ -> Alcotest.fail e
  | Ok _, bytes ->
    let ratio = bytes /. float_of_int (String.length s) in
    if ratio >= 1.5 then
      Alcotest.failf "decoding %d bytes allocated %.0f (%.2fx its size)"
        (String.length s) bytes ratio

(* Encoding writes its output once: the allocation stays under twice
   the output's size whatever the checkpoint holds. *)
let test_encode_allocates_once () =
  let _, _, ck = warmed_checkpoint (Lazy.force micro_prog) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let s = Checkpoint.to_string ck in
  let bytes = Gc.allocated_bytes () -. before in
  let ratio = bytes /. float_of_int (String.length s) in
  if ratio >= 2. then
    Alcotest.failf "encoding %d bytes allocated %.0f (%.2fx its size)"
      (String.length s) bytes ratio

let restamp payload = payload ^ Bor_telemetry.Sha256.digest payload

(* A small checkpoint (tiny tables, a short program) keeps each case
   cheap: every case hashes its input twice. *)
let small_checkpoint =
  lazy
    (let prog = Lazy.force alu_prog in
     let p = Pipeline.create ~config:small_config prog in
     ignore (Pipeline.run_warming ~max_steps:5_000 p);
     Checkpoint.to_string
       (Checkpoint.capture ~program_digest:(Checkpoint.program_digest prog) p))

type mutation =
  | Flip of (int * int) list  (** byte positions and bits *)
  | Truncate of int
  | Splice of int * int * int  (** copy [n] bytes from [src] in at [dst] *)
  | Word of int * int64  (** overwrite one aligned payload word *)

let show_mutation = function
  | Flip l ->
    "flip " ^ String.concat "," (List.map (fun (i, b) -> Printf.sprintf "%d.%d" i b) l)
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Splice (src, n, dst) -> Printf.sprintf "splice %d+%d at %d" src n dst
  | Word (w, v) -> Printf.sprintf "word %d := %Ld" w v

(* Positions are drawn large and wrapped to the payload's length. *)
let mutate payload m =
  let len = String.length payload in
  match m with
  | Flip flips ->
    let b = Bytes.of_string payload in
    List.iter
      (fun (i, bit) ->
        let i = i mod len in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
    Bytes.to_string b
  | Truncate n -> String.sub payload 0 (n mod (len + 1))
  | Splice (src, n, dst) ->
    let src = src mod len and dst = dst mod len in
    let n = min n (len - src) in
    String.sub payload 0 dst ^ String.sub payload src n
    ^ String.sub payload dst (len - dst)
  | Word (w, v) ->
    (* every field after the 8-byte magic is a whole number of words *)
    let b = Bytes.of_string payload in
    Bytes.set_int64_le b (8 + (8 * (w mod ((len - 8) / 8)))) v;
    Bytes.to_string b

let arb_mutation =
  let pos = QCheck.Gen.int_bound (1 lsl 30) in
  QCheck.make ~print:show_mutation
    QCheck.Gen.(
      oneof
        [
          map (fun l -> Flip l) (list_size (int_range 1 8) (pair pos (int_bound 7)));
          map (fun n -> Truncate n) pos;
          map
            (fun (src, n, dst) -> Splice (src, n, dst))
            (triple pos (int_bound 512) pos);
          map2
            (fun w v -> Word (w, v))
            pos
            (oneofl
               [
                 0L; 1L; 4096L; Int64.shift_left 1L 22; Int64.shift_left 1L 28;
                 Int64.shift_left 1L 40; Int64.shift_left 1L 62; Int64.max_int;
                 -1L; Int64.min_int;
               ]);
        ])

let prop_decoder_hostile_bytes =
  QCheck.Test.make ~count:400
    ~name:"decoder: re-stamped hostile bytes are Ok or Error, bounded"
    arb_mutation (fun m ->
      let s = Lazy.force small_checkpoint in
      let input = restamp (mutate (String.sub s 0 (String.length s - 64)) m) in
      match decode_counted input with
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | _, bytes when bytes > allocation_bound input ->
        QCheck.Test.fail_reportf "allocated %.0f bytes for a %d-byte input" bytes
          (String.length input)
      | Ok ck, _ when Checkpoint.to_string ck <> input ->
        QCheck.Test.fail_report "Ok, but does not re-encode to its input"
      | (Ok _ | Error _), _ -> true)

let test_rejects_bad_input () =
  let prog = Lazy.force micro_prog in
  let _, _, ck = warmed_checkpoint prog in
  let s = Checkpoint.to_string ck in
  let expect_error what x =
    match Checkpoint.of_string x with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e -> e
  in
  let e =
    expect_error "bad magic"
      ("XXXCKPT\n" ^ String.sub s 8 (String.length s - 8))
  in
  check Alcotest.bool "magic named in diagnostic" true (contains e "magic");
  let flipped = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  let e = expect_error "flipped payload byte" (Bytes.to_string flipped) in
  check Alcotest.bool "stamp named in diagnostic" true (contains e "SHA-256");
  ignore (expect_error "truncated" (String.sub s 0 (String.length s - 100)));
  ignore (expect_error "empty" "");
  (* [s] with the word at [pos] replaced and the stamp recomputed. *)
  let restamped pos v =
    let payload = Bytes.of_string (String.sub s 0 (String.length s - 64)) in
    Bytes.set_int64_le payload pos (Int64.of_int v);
    let forged = Bytes.to_string payload in
    forged ^ Bor_telemetry.Sha256.digest forged
  in
  (* A register-file length of 2^28 with a correctly recomputed stamp is
     refused before the table is allocated. The length follows magic,
     version, the program digest, pc and halt flag. *)
  let regs_len = 8 + 8 + (8 + String.length ck.Checkpoint.ck_program) + 8 + 8 in
  let huge = restamped regs_len (1 lsl 28) in
  (match decode_counted huge with
  | Ok _, _ -> Alcotest.fail "2^28 register-file length accepted"
  | Error _, bytes ->
    if bytes > allocation_bound huge then
      Alcotest.failf "2^28 length: allocated %.0f bytes" bytes);
  (* A halt flag other than 0 or 1 would read back as [true] and
     re-encode as 1: refused, so every accepted file re-encodes to
     itself. The flag precedes the register-file length. *)
  ignore (expect_error "halt flag 2" (restamped (regs_len - 8) 2));
  (* A future format version with a correctly recomputed stamp must be
     refused by the version check, not misparsed. *)
  let e = expect_error "future version" (restamped 8 (Checkpoint.version + 1)) in
  check Alcotest.bool "version named in diagnostic" true (contains e "version");
  (* A 2-bit predictor counter outside 0..3, correctly re-stamped, is
     corrupt: the reader must refuse it rather than truncate it into a
     byte. The first gshare word follows magic, version, the program
     digest, pc, halt flag, register file, LFSR, history and the table
     length. *)
  let regs = Array.length ck.Checkpoint.ck_arch.Machine.a_regs in
  let first_counter =
    8 + 8 + (8 + String.length ck.Checkpoint.ck_program) + 8 + 8
    + (8 + (8 * regs)) + 8 + 8 + 8
  in
  List.iter
    (fun v ->
      let e =
        expect_error
          (Printf.sprintf "predictor counter %d" v)
          (restamped first_counter v)
      in
      check Alcotest.bool
        (Printf.sprintf "counter %d named in diagnostic %S" v e)
        true
        (contains e "corrupted checkpoint" && contains e "predictor counter"))
    [ 4; -1; 256 ];
  (* The same position holding a legal value parses: the offset above
     really is a counter. *)
  match Checkpoint.of_string (restamped first_counter 3) with
  | Ok ck' -> (
    match List.assoc "gshare" ck'.Checkpoint.ck_warm with
    | Region.Data (Counters, gshare) ->
      check Alcotest.int "re-stamped legal counter read back" 3
        (Char.code (Bytes.get gshare 0))
    | _ -> Alcotest.fail "gshare is not a counter table")
  | Error e -> Alcotest.failf "legal re-stamped counter rejected: %s" e

(* A checkpoint restored into a pipeline whose geometry differs in one
   field is refused with an [Error] naming the first region that does
   not fit, never an exception. *)
let test_rejects_wrong_geometry () =
  let prog = Lazy.force alu_prog in
  let _, digest, ck = warmed_checkpoint ~steps:5_000 prog in
  let d = Bor_uarch.Config.default in
  List.iter
    (fun (field, region, config) ->
      let p = Pipeline.create ~config prog in
      match Checkpoint.restore ck ~program_digest:digest p with
      | exception e ->
        Alcotest.failf "%s: raised %s" field (Printexc.to_string e)
      | Ok () -> Alcotest.failf "%s: restored into another geometry" field
      | Error e ->
        check Alcotest.bool
          (Printf.sprintf "%s: %S names %s" field e region)
          true
          (contains e "does not fit this pipeline configuration: "
          && contains e (": " ^ region ^ " holds")))
    [
      ("ghist_bits", "gshare", { d with ghist_bits = d.ghist_bits - 1 });
      ( "bimodal_entries",
        "bimodal",
        { d with bimodal_entries = d.bimodal_entries / 2 } );
      ("btb_entries", "btb.tags", { d with btb_entries = d.btb_entries / 2 });
      ("ras_entries", "ras.stack", { d with ras_entries = d.ras_entries / 2 });
      ("l1_size", "l1i.tags", { d with l1_size = d.l1_size / 2 });
      ("l2_size", "l2.tags", { d with l2_size = d.l2_size / 2 });
    ]

let test_rejects_wrong_program () =
  let _, _, ck = warmed_checkpoint (Lazy.force micro_prog) in
  match Backend.resume ck (Lazy.force alu_prog) with
  | Ok _ -> Alcotest.fail "checkpoint accepted against a different program"
  | Error e ->
    check Alcotest.bool "program mismatch named in diagnostic" true
      (contains e "different program")

(* Checkpoints never serialize the warmer's block translation cache:
   capturing from a block-warmed pipeline and resuming into a fresh
   one must rebuild blocks on demand and finish in exactly the state
   of an uninterrupted warming run. *)
let test_checkpoint_rebuilds_block_cache () =
  let prog = Lazy.force micro_prog in
  let src = Pipeline.create prog in
  ignore (Pipeline.run_warming ~max_steps:20_000 src);
  (match Pipeline.block_cache src with
  | Some bc ->
    check Alcotest.bool "cache was populated before capture" true
      ((Bor_uarch.Block.stats bc).Bor_uarch.Block.hits > 0)
  | None -> Alcotest.fail "block cache was never created");
  let digest = Checkpoint.program_digest prog in
  let ck = Checkpoint.capture ~program_digest:digest src in
  let dst = Pipeline.create prog in
  (match Checkpoint.restore ck ~program_digest:digest dst with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "restored pipeline starts with no cache" true
    (match Pipeline.block_cache dst with None -> true | Some _ -> false);
  ignore (Pipeline.run_warming src);
  ignore (Pipeline.run_warming dst);
  let uninterrupted = Pipeline.create prog in
  ignore (Pipeline.run_warming uninterrupted);
  check
    Alcotest.(list (pair string string))
    "capture source finishes like an uninterrupted run"
    (Pipeline.state_digests uninterrupted) (Pipeline.state_digests src);
  check
    Alcotest.(list (pair string string))
    "restored pipeline finishes in the same state"
    (Pipeline.state_digests src)
    (Pipeline.state_digests dst)

(* ------------------------------------------------- parallel sampled *)

let snapshot_arch prog p =
  let m = Pipeline.oracle p in
  let db = prog.Bor_isa.Program.data_base in
  let mem = Machine.memory m in
  ( Machine.pc m,
    Array.init Bor_isa.Reg.count (fun i ->
        Machine.reg m (Bor_isa.Reg.of_int i)),
    Array.init
      (Bytes.length prog.Bor_isa.Program.data)
      (fun i -> Bor_sim.Memory.read_byte mem (db + i)) )

let registry_json () = Json.to_string (Telemetry.to_json ())

(* The sampling-scope names a plain fixed-period run registers: any
   name outside this list (a family keyed to the domain count, say)
   fails the test. *)
let sampling_names =
  List.map
    (fun n -> "sampling." ^ n)
    [ "windows"; "warmed"; "detailed"; "cpi_milli"; "ci95_milli" ]

let registered_sampling_names () =
  match Telemetry.to_json () with
  | Json.Obj fields ->
    List.filter_map
      (fun (n, _) ->
        if String.starts_with ~prefix:"sampling." n then Some n else None)
      fields
  | _ -> []

let test_parallel_matches_sequential () =
  let prog = Lazy.force micro_prog in
  let plan = plan_exn "500:300:5000:3" in
  let run domains =
    Telemetry.clear ();
    Telemetry.set_enabled true;
    let t = Pipeline.create prog in
    match Sampled.run_on ~plan ~domains t with
    | Error e -> Alcotest.fail e
    | Ok s ->
      check
        Alcotest.(slist string compare)
        (Printf.sprintf "%d-domain sampling names" domains)
        sampling_names
        (registered_sampling_names ());
      (s, registry_json (), snapshot_arch prog t)
  in
  let s1, tel1, a1 = run 1 in
  List.iter
    (fun d ->
      let s, tel, a = run d in
      check Alcotest.bool
        (Printf.sprintf "%d-domain stats = sequential stats" d)
        true (s1 = s);
      check Alcotest.string
        (Printf.sprintf "%d-domain telemetry = sequential telemetry" d)
        tel1 tel;
      check Alcotest.bool
        (Printf.sprintf "%d-domain final architectural state = sequential" d)
        true (a1 = a))
    [ 4; 3; 2 ];
  Telemetry.clear ();
  Telemetry.set_enabled false

(* Every window fails its 1-cycle budget, so the run's error is the
   first window's, whichever thread ran it. Back-to-back failing runs,
   more of them than the runtime's 128-domain limit, check that the
   error path releases every helper: one left running would pin a pool
   worker (or, spawned per run, exhaust the limit), and a lost wakeup
   would hang the suite. *)
let test_window_errors_at_any_domain_count () =
  let prog =
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 2000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program
  in
  let run ?(plan = plan_exn "20:30:2500") domains =
    match Sampled.run_on ~max_cycles:1 ~plan ~domains (Pipeline.create prog) with
    | Ok _ -> Alcotest.fail "a 1-cycle window budget succeeded"
    | Error e -> e
  in
  let e1 = run 1 in
  check Alcotest.string "2 domains: first window's error" e1 (run 2);
  check Alcotest.string "4 domains: first window's error" e1 (run 4);
  let two_windows = plan_exn "20:30:5000" in
  for i = 1 to 150 do
    let e = run ~plan:two_windows 2 in
    if e <> e1 then Alcotest.failf "failing run %d: %S <> %S" i e e1
  done

let test_sampled_window_checkpoints_fresh_pipeline_only () =
  let prog = Lazy.force alu_prog in
  let t = Pipeline.create prog in
  (match Pipeline.run t with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Sampled.run_on ~plan:(plan_exn "20:30:120") t with
  | Ok _ -> Alcotest.fail "sampled run accepted a used pipeline"
  | Error e ->
    check Alcotest.bool "freshness named in diagnostic" true
      (contains e "freshly created")

(* ------------------------------------------------------ scratch pool *)

(* The window function of a sampled run, taken from the context its
   runner factory receives (the windows themselves run inline). *)
let window_fn ?max_cycles plan prog =
  let fn = ref None in
  let runner (ctx : Sampled.exec_ctx) =
    fn := Some ctx.xc_window;
    {
      Sampled.r_dispatch =
        (fun ~index ~boundary:_ ck ->
          ctx.xc_deliver index
            { Sampled.e_result = ctx.xc_window ck; e_tel = None });
      r_drain = ignore;
    }
  in
  ignore (Sampled.run_on ?max_cycles ~plan ~runner (Pipeline.create prog));
  Option.get !fn

let rec drain_pool () =
  match Bor_exec.Scratch.take () with
  | Some _ -> drain_pool ()
  | None -> ()

(* Windows build their pipelines on retired ones from the scratch pool.
   A window that fails, by a budget [Error] or by an exception escaping
   [run_window], must still retire its pipeline there, and the next
   window built on it must measure exactly what a window on a fresh
   pipeline does. *)
let test_pool_survives_failing_windows () =
  let prog =
    (Bor_workload.Apps.compile "bloat" brr64).Bor_minic.Driver.program
  in
  let plan = plan_exn "500:300:5000:3" in
  let _, digest, ck = warmed_checkpoint prog in
  let fresh =
    let p = Pipeline.create prog in
    (match Checkpoint.restore ck ~program_digest:digest p with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Pipeline.run_window ~warmup:plan.Bor_uarch.Sampling_plan.warmup
      ~window:plan.Bor_uarch.Sampling_plan.window p
  in
  check Alcotest.bool "the fresh window measured" true
    (match fresh with Ok { Pipeline.w_sample = Some _; _ } -> true | _ -> false);
  let window = window_fn plan prog in
  let starved = window_fn ~max_cycles:1 plan prog in
  (* A return stack whose top points past its end: the first call of
     the window indexes out of bounds (or, under the sanitizer, fails
     the RAS shape check). *)
  let broken =
    {
      ck with
      Checkpoint.ck_warm =
        List.map
          (fun (name, v) ->
            (name, if name = "ras.top" then Region.Int (1 lsl 20) else v))
          ck.ck_warm;
    }
  in
  let retired what =
    match Bor_exec.Scratch.take () with
    | None -> Alcotest.failf "%s: the window's pipeline was not retired" what
    | Some p ->
      check Alcotest.bool (what ^ ": exactly one pipeline retired") true
        (Bor_exec.Scratch.take () = None);
      Bor_exec.Scratch.give p
  in
  let same_as_fresh what =
    check Alcotest.bool (what ^ ": next window = fresh window") true
      (window ck = fresh)
  in
  drain_pool ();
  (match starved ck with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a 1-cycle window succeeded");
  retired "budget error";
  same_as_fresh "after a budget error";
  drain_pool ();
  (match window broken with
  | exception Invalid_argument _ -> ()
  | Error _ when Bor_check.Check.enabled () -> ()
  | Error e -> Alcotest.failf "expected an escaping exception, got %S" e
  | Ok _ -> Alcotest.fail "a window with a broken return stack succeeded");
  retired "exception";
  same_as_fresh "after an exception"

(* Every leg of the ten-way differential builds its pipeline on one
   from the scratch pool and must retire it there again, however
   [Diff.run] ends: a pass, a leg that exhausts its cycle budget, or a
   failure raised between legs (a plan the run rejects). The pool is
   filled beyond the differential's peak demand first (one leg plus at
   most four window domains), so nothing has to be created and the
   pool must end each run holding as many pipelines as it started
   with, built on the same memories ([create ~reuse] hands back a new
   pipeline record on the retired one's buffers). *)
let diff_src =
  {|
main:   li   s7, 200
loop:   addi a0, a0, 3
        brr  1/4, skip
        addi a1, a1, 1
skip:   sw   a0, 0(gp)
        addi s7, s7, -1
        bne  s7, zero, loop
        halt
        .data
        .word 0
|}

let test_diff_returns_pooled_pipelines () =
  let prog = Bor_isa.Asm.assemble_exn diff_src in
  let pooled () =
    let rec drain acc =
      match Bor_exec.Scratch.take () with
      | Some p -> drain (p :: acc)
      | None -> acc
    in
    let ps = drain [] in
    List.iter Bor_exec.Scratch.give ps;
    ps
  in
  let memory p = Machine.memory (Pipeline.oracle p) in
  drain_pool ();
  let own = List.init 8 (fun _ -> Pipeline.create prog) in
  List.iter Bor_exec.Scratch.give own;
  let back what =
    let mems = List.map memory (pooled ()) in
    check Alcotest.int (what ^ ": pool size") (List.length own)
      (List.length mems);
    List.iter
      (fun p ->
        if not (List.exists (( == ) (memory p)) mems) then
          Alcotest.failf "%s: a borrowed pipeline was not retired" what)
      own
  in
  (match Bor_gen.Diff.run prog with
  | Bor_gen.Diff.Pass -> ()
  | Bor_gen.Diff.Fail { stage; reason } -> Alcotest.failf "%s: %s" stage reason
  | Bor_gen.Diff.Budget e -> Alcotest.failf "budget: %s" e);
  back "pass";
  (match Bor_gen.Diff.run ~max_cycles:50 prog with
  | Bor_gen.Diff.Budget _ -> ()
  | _ -> Alcotest.fail "a 50-cycle budget did not exhaust");
  back "budget";
  (match Bor_gen.Diff.run ~plan_seed:(-1) prog with
  | Bor_gen.Diff.Fail { stage = "plan"; _ } -> ()
  | _ -> Alcotest.fail "a negative plan seed did not fail the plan stage");
  back "failure";
  drain_pool ()

(* The functional reference of the differential runs on a pooled
   pipeline's memory. A run there must not see what an earlier program
   left behind: [scratch_dirty_src] writes ones over the data and
   stack words that [scratch_ref_src] reads before it writes them, and
   the run on that memory must end in the registers, data bytes and
   retirement counts of a run on a new memory. *)
let scratch_dirty_src =
  {|
main:   li   s7, 512
        li   t0, -1
        mv   t1, gp
fill:   sw   t0, 0(t1)
        addi sp, sp, -4
        sw   t0, 0(sp)
        addi t1, t1, 4
        addi s7, s7, -1
        bne  s7, zero, fill
        halt
|}

let scratch_ref_src =
  {|
main:   li   s7, 256
        mv   t1, gp
loop:   lw   t0, 0(t1)
        add  a0, a0, t0
        lw   t2, -8(sp)
        add  a2, a2, t2
        addi sp, sp, -4
        brr  1/4, skip
        addi a1, a1, 1
skip:   sw   a1, 0(t1)
        sw   a0, 0(sp)
        addi t1, t1, 4
        addi s7, s7, -1
        bne  s7, zero, loop
        halt
        .data
buf:    .space 1024
|}

let test_functional_on_scratch_memory () =
  let prog = Bor_isa.Asm.assemble_exn scratch_ref_src in
  let dirty = Bor_isa.Asm.assemble_exn scratch_dirty_src in
  let db = prog.Bor_isa.Program.data_base in
  let final ?mem prog =
    let b = Backend.functional ?mem prog in
    (match b.Backend.run () with Ok _ -> () | Error e -> Alcotest.fail e);
    let m = b.Backend.machine () in
    let mem = Machine.memory m in
    ( Array.init Bor_isa.Reg.count (fun i ->
          Machine.reg m (Bor_isa.Reg.of_int i)),
      Bytes.init 1024 (fun i ->
          Char.chr (Bor_sim.Memory.read_byte mem (db + i))),
      Machine.stats m )
  in
  let fresh_regs, fresh_data, fresh_stats = final prog in
  drain_pool ();
  Bor_exec.Scratch.give (Pipeline.create dirty);
  let dirtied =
    Bor_exec.Scratch.with_memory dirty @@ fun mem ->
    ignore (final ~mem dirty);
    check Alcotest.int "dirtier left ones in the data segment" 0xff
      (Bor_sim.Memory.read_byte mem db);
    mem
  in
  let regs, data, stats =
    Bor_exec.Scratch.with_memory prog @@ fun mem ->
    if mem != dirtied then Alcotest.fail "the pool lent another memory";
    final ~mem prog
  in
  drain_pool ();
  check Alcotest.(array int) "registers" fresh_regs regs;
  check Alcotest.bytes "data bytes" fresh_data data;
  check Alcotest.bool "retirement stats" true (fresh_stats = stats);
  check Alcotest.int "the reference read zeros" 0
    fresh_regs.(Bor_isa.Reg.to_int (Bor_isa.Reg.a 2))

(* ------------------------------------------------ frozen registries *)

(* The whole telemetry registry of two fixed runs, pinned by SHA-256:
   a default-config sampled run (block-cache warming, windows on
   throwaway pipelines) and a full-detail run whose region of interest
   opens at [marker 1] after a warm-up loop and closes at [marker 2].
   Any change to which events are counted, when they reach the
   registry, or how they are named and documented moves a hex. *)
let roi_src =
  {|
main:   li   s0, 3000       ; warm-up, outside the region of interest
warm:   addi t0, t0, 1
        bne  s0, t0, warm
        marker 1
        la   s2, buf
        li   s1, 4000
loop:   brr  1/4, tgt
back:   andi t1, s1, 63
        slli t1, t1, 2
        add  t3, s2, t1
        lw   t2, 0(t3)
        add  t2, t2, s1
        sw   t2, 0(t3)
        andi t1, s1, 7
        bne  t1, zero, skip
        jal  leaf
skip:   addi s1, s1, -1
        bne  s1, zero, loop
        marker 2
        halt
tgt:    xor  t4, t4, s1
        brra back
leaf:   addi t5, t5, 1
        ret
        .data
buf:    .space 256
|}

let registry_sha f =
  Telemetry.clear ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.clear ())
    (fun () ->
      f ();
      Bor_telemetry.Sha256.digest (registry_json ()))

let test_frozen_registries () =
  let sampled =
    registry_sha (fun () ->
        let p = Pipeline.create (Lazy.force micro_prog) in
        match Sampled.run_on ~plan:(plan_exn "500:300:5000:3") p with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  check Alcotest.string "sampled run_on registry"
    "5221193073e250d538988dc7dedb79c1ea9ccb94ea13f83bf91f00eac79b04b4" sampled;
  (* The same schedule under ranked selection and the stopping rule:
     pins the sampling.rank.* and sampling.stop.* bytes too. *)
  let ranked =
    registry_sha (fun () ->
        let p = Pipeline.create (Lazy.force micro_prog) in
        match
          Sampled.run_on
            ~plan:(plan_exn ~rank_bands:3 ~ci_target:2. "500:300:5000:3") p
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  check Alcotest.string "ranked, stopping run_on registry"
    "004be5dbfbf93dd516252b0415946effdd17d6f9adcfb44c85899ebf2bf62faa" ranked;
  let roi =
    registry_sha (fun () ->
        let prog =
          match Bor_isa.Asm.assemble roi_src with
          | Ok p -> p
          | Error e -> Alcotest.failf "assembly failed: %a" Bor_isa.Asm.pp_error e
        in
        match Pipeline.run (Pipeline.create prog) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  check Alcotest.string "marker 1 / marker 2 full-detail registry"
    "01b625cf4abbfd250c6322380bc5b2046834e1beeb2a2334387aebb898b227ba" roi

(* ------------------------------------------------ frozen checkpoint *)

(* The serialized bytes of one fixed capture and the predictor digest
   at that point, pinned by SHA-256: a fixed functional-warming budget
   into an app kernel. Any change to the BORCKPT layout, to how the
   warmed structures are stored and exported, or to the warming
   trajectory itself moves a hex. *)
let test_frozen_checkpoint () =
  let prog =
    (Bor_workload.Apps.compile "bloat" brr64).Bor_minic.Driver.program
  in
  let p, _, ck = warmed_checkpoint ~steps:150_000 prog in
  check Alcotest.bool "captured mid-run" false
    (Machine.halted (Pipeline.oracle p));
  check Alcotest.string "Checkpoint.to_string"
    "4dab30d426e9b195f0566652875da075c0145bec6cee7adef03497b16b736bdb" (Bor_telemetry.Sha256.digest (Checkpoint.to_string ck));
  check Alcotest.string "Predictor.state_digest"
    "0ef1550b8a1dd47503584da555bb620ec981acee7775519805543c770ce7cf95" (Bor_uarch.Predictor.state_digest (Pipeline.warm p).pred)

(* --------------------------------------------------------- backends *)

let test_backend_reports () =
  let prog = Lazy.force alu_prog in
  (match (Backend.functional prog).Backend.run () with
  | Ok (Backend.Functional { instructions }) ->
    check Alcotest.bool "functional ran" true (instructions > 0)
  | Ok _ -> Alcotest.fail "functional: wrong report kind"
  | Error e -> Alcotest.fail e);
  (match (Backend.detailed prog).Backend.run () with
  | Ok (Backend.Detailed st) ->
    check Alcotest.bool "detailed ran" true (st.Pipeline.instructions > 0)
  | Ok _ -> Alcotest.fail "detailed: wrong report kind"
  | Error e -> Alcotest.fail e);
  (match (Backend.warming prog).Backend.run () with
  | Ok (Backend.Warmed { instructions }) ->
    check Alcotest.bool "warming ran" true (instructions > 0)
  | Ok _ -> Alcotest.fail "warming: wrong report kind"
  | Error e -> Alcotest.fail e);
  match
    (Backend.sampled ~plan:(plan_exn "200:100:2000:7") prog).Backend.run ()
  with
  | Ok (Backend.Sampled s) ->
    check Alcotest.bool "sampled measured windows" true
      (s.Sampled.sp_windows > 0)
  | Ok _ -> Alcotest.fail "sampled: wrong report kind"
  | Error e -> Alcotest.fail e

(* [Kind.of_name] over every name x {no plan, plan}: only "sampled"
   takes a plan and it needs one, an unknown name is refused either
   way, and each refusal names the backend. [Kind.name] gives back the
   four names — the key's [kind] component and the payload's
   [backend] field — and [create] builds the substrate each names. *)
let test_kind_of_name_table () =
  let plan = plan_exn "20:30:120" in
  List.iter
    (fun (name, plan, accepted) ->
      let what =
        Printf.sprintf "%s %s a plan" name
          (if plan = None then "without" else "with")
      in
      match (Backend.Kind.of_name name plan, accepted) with
      | Ok k, true ->
        check Alcotest.string (what ^ ": name") name (Backend.Kind.name k);
        check Alcotest.string (what ^ ": create builds it") name
          (match (Backend.create k (Lazy.force alu_prog)).Backend.run () with
          | Ok (Backend.Functional _) -> "functional"
          | Ok (Backend.Detailed _) -> "detailed"
          | Ok (Backend.Warmed _) -> "warming"
          | Ok (Backend.Sampled _) -> "sampled"
          | Error e -> e)
      | Error e, false ->
        check Alcotest.bool
          (Printf.sprintf "%s: error %S names the backend" what e)
          true (contains e name)
      | Ok _, false -> Alcotest.failf "%s accepted" what
      | Error e, true -> Alcotest.failf "%s refused: %s" what e)
    [
      ("functional", None, true);
      ("functional", Some plan, false);
      ("detailed", None, true);
      ("detailed", Some plan, false);
      ("warming", None, true);
      ("warming", Some plan, false);
      ("sampled", None, false);
      ("sampled", Some plan, true);
      ("warp", None, false);
      ("warp", Some plan, false);
    ];
  match Backend.Kind.of_name "sampled" (Some plan) with
  | Ok (Backend.Kind.Sampled p) ->
    check Alcotest.bool "sampled carries its plan" true (p == plan)
  | Ok _ | Error _ -> Alcotest.fail "sampled decoded to another kind"

let () =
  Alcotest.run "bor_exec"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "restore matches capture" `Quick
            (test_restore_matches_capture Bor_uarch.Config.default);
          Alcotest.test_case "restore matches capture, small geometry" `Quick
            (test_restore_matches_capture small_config);
          Alcotest.test_case "resumed run deterministic" `Quick
            test_resumed_run_deterministic;
          Alcotest.test_case "resume after halt runs nothing" `Quick
            test_resume_after_halt;
          Alcotest.test_case "serialized round trip" `Quick
            test_serialized_roundtrip;
          Alcotest.test_case "decoding allocates its state only" `Quick
            test_decode_allocates_once;
          Alcotest.test_case "encoding allocates its output once" `Quick
            test_encode_allocates_once;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2026 |])
            prop_decoder_hostile_bytes;
          Alcotest.test_case "rebuilds the block cache on resume" `Quick
            test_checkpoint_rebuilds_block_cache;
          Alcotest.test_case "rejects wrong program" `Quick
            test_rejects_wrong_program;
          Alcotest.test_case "rejects wrong geometry" `Quick
            test_rejects_wrong_geometry;
          Alcotest.test_case "frozen checkpoint bytes" `Quick
            test_frozen_checkpoint;
        ] );
      ( "sampled",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "window errors at any domain count" `Quick
            test_window_errors_at_any_domain_count;
          Alcotest.test_case "requires fresh pipeline" `Quick
            test_sampled_window_checkpoints_fresh_pipeline_only;
          Alcotest.test_case "scratch pool survives failing windows" `Quick
            test_pool_survives_failing_windows;
          Alcotest.test_case "differential legs retire their pipelines"
            `Quick test_diff_returns_pooled_pipelines;
          Alcotest.test_case "functional run on a dirtied scratch memory"
            `Quick test_functional_on_scratch_memory;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "frozen registries" `Quick test_frozen_registries;
        ] );
      ( "backend",
        [
          Alcotest.test_case "report kinds" `Quick test_backend_reports;
          Alcotest.test_case "Kind.of_name table" `Quick
            test_kind_of_name_table;
        ] );
    ]
