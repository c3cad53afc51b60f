(* Tests for Bor_serve: wire framing, the domain pool ([Bor_exec.Pool],
   which bor opt and bench --jobs fan out through), job payload
   determinism (cold runs, cache and dedup-join paths all
   byte-identical — the digest-equality contract of
   docs/SERVE.md), scheduler dispositions and counters, and the
   socket server end to end. *)

module Wire = Bor_serve.Wire
module Pool = Bor_exec.Pool
module Job = Bor_serve.Job
module Wqueue = Bor_serve.Wqueue
module Scheduler = Bor_serve.Scheduler
module Server = Bor_serve.Server
module Client = Bor_serve.Client
module Store = Bor_store.Store
module Json = Bor_telemetry.Json
module Sampled = Bor_exec.Sampled
module Pipeline = Bor_uarch.Pipeline

let check = Alcotest.check

let alu_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 2000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program

let slow_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 60000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program

let plan_exn s =
  match Bor_uarch.Sampling_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A run that genuinely faults: the detailed backend's oracle takes a
   misaligned load, so the job fails at run time, not at submit. *)
let fault_prog =
  lazy
    (Bor_isa.Asm.assemble_exn
       "main:\n  lw a0, 2(gp)\n  halt\n  .data\n  .word 5\n")

let check_faulted = function
  | Some (Error e) ->
    check Alcotest.bool "the run faulted" true (contains e "misaligned")
  | Some (Ok _) -> Alcotest.fail "faulting run reported success"
  | None -> Alcotest.fail "job vanished"

let tmp_counter = ref 0

let fresh_path prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let store_exn ?max_bytes dir =
  match Store.create ?max_bytes dir with Ok s -> s | Error e -> Alcotest.fail e

let payload_exn = function
  | Ok (payload, source) -> (payload, source)
  | Error e -> Alcotest.fail e

(* -------------------------------------------------------------- wire *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let msgs = [ ""; "x"; String.make 100_000 'q'; "bytes\x00\xff\n" ] in
  List.iter (fun m -> Wire.write_frame a m) msgs;
  List.iter
    (fun m ->
      match Wire.read_frame b with
      | Some got -> check Alcotest.string "frame round trip" m got
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  let j = Json.Obj [ ("op", Json.String "status"); ("n", Json.Int 3) ] in
  Wire.write_json a j;
  (match Wire.read_json b with
  | Some got -> check Alcotest.string "json round trip" (Json.to_string j) (Json.to_string got)
  | None -> Alcotest.fail "unexpected EOF");
  Unix.close a;
  check Alcotest.bool "clean EOF at frame boundary" true (Wire.read_frame b = None);
  Unix.close b

let test_wire_rejects_garbage () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A length header far past max_frame. *)
  let header = Bytes.create 8 in
  Bytes.set_int64_le header 0 0x7fff_ffff_ffff_ffffL;
  ignore (Unix.write a header 0 8);
  (match Wire.read_frame b with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  Unix.close a;
  Unix.close b;
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* EOF mid-frame: a header promising bytes that never arrive. *)
  Bytes.set_int64_le header 0 64L;
  ignore (Unix.write c header 0 8);
  Unix.close c;
  (match Wire.read_frame d with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "torn frame accepted");
  Unix.close d

(* A header claiming a frame near [max_frame], ten payload bytes, then
   EOF: the reader must pay for the bytes that arrived, not for the
   claim, before it raises. *)
let test_wire_claim_costs_nothing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 8 in
  Bytes.set_int64_le header 0 (Int64.of_int (200 * 1024 * 1024));
  ignore (Unix.write a header 0 8);
  ignore (Unix.write_substring a "0123456789" 0 10);
  Unix.close a;
  let before = Gc.allocated_bytes () in
  (match Wire.read_frame b with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "torn frame accepted");
  let allocated = Gc.allocated_bytes () -. before in
  Unix.close b;
  if allocated >= 2e6 then
    Alcotest.failf "a 200 MiB claim with 10 bytes sent allocated %.0f bytes"
      allocated;
  (* A frame past the first buffer still arrives whole, through the
     growing one. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big =
    String.init ((5 * 1024 * 1024 / 2) + 3) (fun i -> Char.chr (i land 255))
  in
  let writer = Domain.spawn (fun () -> Wire.write_frame a big) in
  (match Wire.read_frame b with
  | Some got ->
    check Alcotest.bool "big frame round trip" true (String.equal got big)
  | None -> Alcotest.fail "unexpected EOF");
  Domain.join writer;
  Unix.close a;
  Unix.close b

let test_hex_roundtrip () =
  let bytes = String.init 256 Char.chr in
  (match Wire.of_hex (Wire.to_hex bytes) with
  | Ok got -> check Alcotest.string "hex round trip" bytes got
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "odd length rejected" true
    (match Wire.of_hex "abc" with Error _ -> true | Ok _ -> false);
  check Alcotest.bool "non-hex rejected" true
    (match Wire.of_hex "zz" with Error _ -> true | Ok _ -> false)

(* Arbitrary bytes, quotes, backslashes, controls and bytes from 0x80
   included: the hex is two lowercase digits per byte, exactly what
   [Printf "%02x"] writes, and decodes back, in either case. *)
let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex codec on any bytes" ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         string_size
           ~gen:(frequency [ (3, char); (1, oneofl [ '"'; '\\'; '\000'; '\255' ]) ])
           (int_bound 300)))
    (fun s ->
      let hex = Wire.to_hex s in
      hex
      = String.concat ""
          (List.init (String.length s) (fun i ->
               Printf.sprintf "%02x" (Char.code s.[i])))
      && Wire.of_hex hex = Ok s
      && Wire.of_hex (String.uppercase_ascii hex) = Ok s)

(* ---------------------------------------------- object image decoder *)

module Objfile = Bor_isa.Objfile

(* A valid image: a generated program, given random symbols and
   instrumentation sites so every table of the format is present. *)
let gen_valid_image =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* symbols =
      list_size (int_bound 4)
        (pair (string_size ~gen:printable (int_bound 12)) (int_bound 0xffff))
    in
    let* sites =
      list_size (int_bound 4) (pair (int_bound 0xffff) (int_bound 99))
    in
    let p = Bor_gen.Gen.gen_program (Bor_util.Prng.create ~seed) in
    return
      (Objfile.save
         (Bor_isa.Program.make ~text_base:p.text_base ~data_base:p.data_base
            ~entry:p.entry ~symbols ~sites ~data:p.data p.text)))

let u32_at s pos v =
  let b = Bytes.of_string s in
  if pos + 4 <= Bytes.length b then Bytes.set_int32_le b pos (Int32.of_int v);
  Bytes.to_string b

(* The hex a submit carries: a valid image after one to three
   mutations (a bit flip, a truncation, an extension, a splice of the
   image into itself, or an oversized count or length written over one
   of the header's u32 fields), sometimes with the hex itself damaged
   (a dropped digit, a non-hex character, upper case). *)
let gen_hex =
  let open QCheck.Gen in
  let mutate s =
    let n = String.length s in
    if n = 0 then return s
    else
      frequency
        [
          ( 3,
            map2
              (fun i bit ->
                String.mapi
                  (fun j c ->
                    if j = i mod n then Char.chr (Char.code c lxor (1 lsl bit))
                    else c)
                  s)
              nat (int_bound 7) );
          (2, map (fun k -> String.sub s 0 (k mod (n + 1))) nat);
          (1, map (fun tail -> s ^ tail) (string_size (int_range 1 16)));
          ( 1,
            map3
              (fun a b len ->
                let a = a mod n and b = b mod n in
                let len = min len (n - b) in
                String.sub s 0 a ^ String.sub s b len ^ String.sub s a (n - a))
              nat nat (int_bound 64) );
          ( 3,
            map2 (fun field v -> u32_at s (4 * field) v)
              (int_bound 7)
              (oneofl
                 [ 0xffffffff; 0x7fffffff; 0x1000000; 0x10000; n; n / 4 ]) );
        ]
  in
  let* image = gen_valid_image in
  let* rounds = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  let* hex = map Wire.to_hex (go rounds image) in
  let n = String.length hex in
  frequency
    [
      (8, return hex);
      (1, return (String.sub hex 0 (max 0 (n - 1))));
      ( 1,
        map
          (fun i ->
            String.mapi (fun j c -> if j = i mod max 1 n then 'g' else c) hex)
          nat );
      (1, return (String.uppercase_ascii hex));
    ]

(* Bytes allocated so far. [Gc.minor_words] is exact where the
   counters' minor total moves only at a minor collection; direct major
   allocations (a large array) count at once. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  float_of_int (Sys.word_size / 8) *. (Gc.minor_words () +. major -. promoted)

(* The submit path's program decoder ([Wire.of_hex], then
   [Objfile.load]) never raises, never allocates more than a small
   multiple of its input (a header cannot claim a table the bytes do
   not hold), and every image it accepts re-saves to the same bytes. *)
let prop_object_image_decoder =
  QCheck.Test.make ~name:"object image decoder" ~count:1000
    (QCheck.make ~print:Fun.id gen_hex)
    (fun hex ->
      Gc.minor ();
      let before = allocated_bytes () in
      match Wire.of_hex hex with
      | exception e ->
        QCheck.Test.fail_reportf "hex decoder raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok image -> (
        match Objfile.load image with
        | exception e ->
          QCheck.Test.fail_reportf "image decoder raised %s"
            (Printexc.to_string e)
        | decoded -> (
          let allocated = allocated_bytes () -. before in
          if allocated > float_of_int ((64 * String.length image) + 4096) then
            QCheck.Test.fail_reportf "allocated %.0f bytes for a %d-byte image"
              allocated (String.length image);
          match decoded with
          | Error _ -> true
          | Ok p -> Objfile.save p = image)))

(* -------------------------------------------------------------- pool *)

let test_pool_preserves_order () =
  let items = Array.init 37 (fun i -> i) in
  let out = Pool.map ~domains:4 (fun i -> i * i) items in
  Array.iteri (fun i v -> check Alcotest.int "slot matches item" (i * i) v) out

let test_pool_propagates_first_failure () =
  let items = Array.init 16 (fun i -> i) in
  match
    Pool.map ~domains:4
      (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
      items
  with
  | _ -> Alcotest.fail "expected a propagated exception"
  | exception Failure msg ->
    (* Items 3, 8 and 13 fail; submission order pins which wins. *)
    check Alcotest.string "earliest item's exception wins" "3" msg

(* [init] is per-participant setup: once per call in the caller and in
   each helper that starts, never carried over from an earlier call on
   a reused worker. Every item sees the tag its own participant's
   [init] set in this call. *)
let test_pool_runs_init_per_participant () =
  let tag = Domain.DLS.new_key (fun () -> 0) in
  for call = 1 to 20 do
    let inits = Atomic.make 0 in
    let out =
      Pool.map ~domains:3
        ~init:(fun () ->
          Atomic.incr inits;
          Domain.DLS.set tag call)
        (fun i -> (i + 1, Domain.DLS.get tag))
        (Array.init 12 (fun i -> i))
    in
    Array.iteri
      (fun i (v, t) ->
        check Alcotest.int "all items mapped" (i + 1) v;
        check Alcotest.int "init ran this call, on the item's participant"
          call t)
      out;
    check Alcotest.bool "the caller plus at most two started helpers" true
      (Atomic.get inits >= 1 && Atomic.get inits <= 3)
  done;
  let inits = Atomic.make 0 in
  ignore
    (Pool.map ~domains:1 ~init:(fun () -> Atomic.incr inits) Fun.id
       (Array.init 5 Fun.id));
  check Alcotest.int "sequential: one init, in the caller" 1 (Atomic.get inits)

let test_pool_nested_map () =
  let out =
    Pool.map ~domains:2
      (fun i ->
        Array.fold_left ( + ) 0
          (Pool.map ~domains:3 (fun j -> i * j) (Array.init 10 Fun.id)))
      (Array.init 6 Fun.id)
  in
  Array.iteri (fun i v -> check Alcotest.int "nested map" (45 * i) v) out

(* Two items that each wait (up to a second) for the other to start, so
   on a warm pool they run on two participants at once. *)
let on_two_participants f =
  let started = Atomic.make 0 in
  Pool.map ~domains:2
    (fun i ->
      Atomic.incr started;
      let t0 = Unix.gettimeofday () in
      while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 1. do
        Domain.cpu_relax ()
      done;
      f i)
    [| 0; 1 |]

let test_pool_workers_start_clean () =
  let module Telemetry = Bor_telemetry.Telemetry in
  let caller = Domain.self () in
  let checked = ref 0 in
  for _ = 1 to 20 do
    (* A task on a worker enables telemetry and registers an
       instrument, and leaves both behind... *)
    ignore
      (on_two_participants (fun _ ->
           if Domain.self () <> caller then begin
             Telemetry.set_enabled true;
             Telemetry.incr (Telemetry.counter (Telemetry.scope "leak") "left")
           end));
    (* ...and no later task on a worker sees either. *)
    on_two_participants (fun _ ->
        if Domain.self () = caller then None
        else
          Some (Telemetry.is_enabled (), Telemetry.find_counter "leak.left"))
    |> Array.iter (function
         | None -> ()
         | Some (enabled, found) ->
           incr checked;
           check Alcotest.bool "telemetry flag starts off" false enabled;
           check Alcotest.bool "no instrument from an earlier task" true
             (found = None))
  done;
  check Alcotest.bool "some task ran on a worker" true (!checked > 0)

let sampled_stats ~plan domains =
  match
    Sampled.run_on ~plan ~domains (Pipeline.create (Lazy.force alu_prog))
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_pool_sampled_inside_item () =
  let plan = plan_exn "20:30:500" in
  let seq = sampled_stats ~plan 1 in
  Pool.map ~domains:2 (fun d -> sampled_stats ~plan d) [| 3; 3; 1 |]
  |> Array.iter (fun s ->
         check Alcotest.bool "domains:3 inside a pool item = domains:1" true
           (s = seq))

let test_pool_back_to_back () =
  let plan = plan_exn "20:30:2500" in
  let seq = sampled_stats ~plan 1 in
  for call = 1 to 200 do
    if call mod 2 = 0 then begin
      let out = Pool.map ~domains:4 (fun i -> i + call) (Array.init 8 Fun.id) in
      Array.iteri (fun i v -> check Alcotest.int "map slot" (i + call) v) out
    end
    else
      check Alcotest.bool "sampled run at 3 domains = 1 domain" true
        (sampled_stats ~plan 3 = seq)
  done

(* The one wait protocol under repetition: pool copies of
   [Wqueue.work], the window queue's help-first waits and [Pool.join],
   in three shapes that each finish in a few milliseconds. Never more
   than four domains take part: the caller, a scheduler's one or two
   workers, and in the last shape a sampled run's two helpers beside one
   worker. A watchdog thread ends the binary when one iteration takes
   ten seconds, so a lost wakeup fails the suite instead of hanging it. *)
let test_stress_one_protocol () =
  let plan = plan_exn "10:20:400" in
  let prog =
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 100; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program
  in
  let spec_a = Job.make ~plan ~backend:"sampled" prog in
  let spec_b = Job.make ~plan ~rank_bands:2 ~backend:"sampled" prog in
  let spec_d = Job.make ~backend:"detailed" prog in
  let solo spec = fst (payload_exn (Job.run spec)) in
  let solo_a = solo spec_a and solo_b = solo spec_b and solo_d = solo spec_d in
  let sampled domains =
    match Sampled.run_on ~plan ~domains (Pipeline.create prog) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let seq = sampled 1 in
  let deadline = Atomic.make infinity and stage = Atomic.make "" in
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        while not (Atomic.get finished) do
          Thread.delay 0.05;
          if Unix.gettimeofday () > Atomic.get deadline then begin
            prerr_endline ("stress: stalled in " ^ Atomic.get stage);
            Unix._exit 3
          end
        done)
      ()
  in
  let payload sched key =
    fst (payload_exn (Option.get (Scheduler.await sched key)))
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set finished true;
      Thread.join watchdog)
  @@ fun () ->
  for i = 1 to 120 do
    Atomic.set deadline (Unix.gettimeofday () +. 10.);
    match i mod 5 with
    | 0 ->
      Atomic.set stage (Printf.sprintf "overlapping jobs, iteration %d" i);
      let sched = Scheduler.create ~domains:2 () in
      let ka, _ = Scheduler.submit sched spec_a in
      let kb, _ = Scheduler.submit sched spec_b in
      let _, again = Scheduler.submit sched spec_a in
      check Alcotest.string "job A" solo_a (payload sched ka);
      check Alcotest.string "job B" solo_b (payload sched kb);
      check Alcotest.bool "the resubmission joined or hit" true (again <> `Queued);
      Scheduler.shutdown sched
    | 1 | 2 | 3 ->
      Atomic.set stage (Printf.sprintf "shutdown after submit, iteration %d" i);
      let sched = Scheduler.create ~domains:(1 + (i mod 2)) () in
      let spec, solo = if i mod 3 = 0 then (spec_a, solo_a) else (spec_d, solo_d) in
      let key, _ = Scheduler.submit sched spec in
      Scheduler.shutdown sched;
      check Alcotest.string "a queued job runs before shutdown returns" solo
        (match Scheduler.job_state sched key with
        | Some (Scheduler.Done outcome) -> fst (payload_exn outcome)
        | _ -> Alcotest.fail "shutdown returned before its queued job")
    | _ ->
      Atomic.set stage (Printf.sprintf "sampled beside a scheduler, iteration %d" i);
      let sched = Scheduler.create ~domains:1 () in
      let kd, _ = Scheduler.submit sched spec_d in
      check Alcotest.bool "domains:3 beside a live scheduler = domains:1" true
        (sampled 3 = seq);
      check Alcotest.string "the scheduler's job" solo_d (payload sched kd);
      Scheduler.shutdown sched
  done

(* --------------------------------------------------------------- job *)

let test_job_payload_deterministic () =
  let spec = Job.make ~backend:"detailed" (Lazy.force alu_prog) in
  let p1, _ = payload_exn (Job.run spec) in
  let p2, _ = payload_exn (Job.run spec) in
  check Alcotest.string "cold reruns are byte-identical" p1 p2;
  (* The payload names its own key and digests its telemetry. *)
  let j = Json.of_string p1 in
  check Alcotest.bool "payload carries the key" true
    (Json.member "key" j = Some (Json.String (Bor_store.Key.hex (Job.key spec))));
  check Alcotest.bool "payload digests its telemetry" true
    (match (Json.member "telemetry" j, Json.member "telemetry_digest" j) with
    | Some t, Some (Json.String d) ->
      String.equal d (Bor_telemetry.Sha256.digest (Json.to_string t))
    | _ -> false)

let test_job_ci_target_all_paths_identical () =
  (* A ranked sampled job with a CI target: the standalone run, the
     scheduler's cold path, a dedup join and a cross-restart store hit
     must all produce the same payload bytes, and the payload must
     record both knobs and the stop decision. *)
  let plan = plan_exn "200:100:2000:7" in
  let prog = Lazy.force alu_prog in
  let spec =
    Job.make ~plan ~rank_bands:3 ~ci_target:5. ~backend:"sampled" prog
  in
  let p_standalone, _ = payload_exn (Job.run spec) in
  let j = Json.of_string p_standalone in
  check Alcotest.bool "payload records rank_bands" true
    (Json.member "rank_bands" j = Some (Json.Int 3));
  check Alcotest.bool "payload records ci_target" true
    (Json.member "ci_target" j = Some (Json.String "5.000000"));
  (match Json.member "report" j with
  | Some report ->
    check Alcotest.bool "report carries the stop decision" true
      (match Json.member "stopped" report with
      | Some (Json.Bool _) -> true
      | _ -> false)
  | None -> Alcotest.fail "payload has no report");
  let dir = fresh_path "bor-serve-ranked-store" in
  let sched = Scheduler.create ~domains:1 ~store:(store_exn dir) () in
  (* One worker busy on [slow]: the resubmission below is a
     deterministic dedup join. *)
  let _ = Scheduler.submit sched (Job.make ~backend:"detailed" (Lazy.force slow_prog)) in
  let key, d1 = Scheduler.submit sched spec in
  let key', d2 = Scheduler.submit sched spec in
  check Alcotest.string "resubmission shares the job id" key key';
  check Alcotest.bool "first submission queued" true (d1 = `Queued);
  check Alcotest.bool "resubmission joined in flight" true (d2 = `Joined);
  let p_cold, src = payload_exn (Option.get (Scheduler.await sched key)) in
  check Alcotest.bool "computed cold" true (src = `Cold);
  check Alcotest.string "served cold bytes = standalone run" p_standalone p_cold;
  Scheduler.shutdown sched;
  let sched2 = Scheduler.create ~domains:1 ~store:(store_exn dir) () in
  let key2, _ = Scheduler.submit sched2 spec in
  let p_cached, src2 = payload_exn (Option.get (Scheduler.await sched2 key2)) in
  check Alcotest.bool "restart answered from the store" true (src2 = `Cached);
  check Alcotest.string "store bytes = standalone run" p_standalone p_cached;
  Scheduler.shutdown sched2;
  (* The knobs are part of the cache key: a plain sampled job over the
     same plan can never alias a ranked/stopped one. *)
  check Alcotest.bool "rank/ci knobs are keyed" true
    (key
    <> Bor_store.Key.hex (Job.key (Job.make ~plan ~backend:"sampled" prog)))

let test_job_rejects_unknown_backend () =
  match Job.make ~backend:"warp-drive" (Lazy.force alu_prog) with
  | exception Invalid_argument e ->
    check Alcotest.bool "names the backend" true (contains e "warp-drive")
  | _ -> Alcotest.fail "unknown backend accepted"

(* ------------------------------------------------------ window queue *)

let entry_ok sample =
  {
    Sampled.e_result =
      Ok { Pipeline.w_sample = Some sample; w_detailed = 10; w_cycles = 20 };
    e_tel = None;
  }

let never_stopped () = false

(* One failing window unit fails only the jobs waiting on it — other
   units (and other jobs) are untouched — and the failure is never
   retained: an identical later dispatch recomputes. *)
let test_wqueue_failure_isolated_never_cached () =
  let wq = Wqueue.create () in
  let got : (string * int * bool) list ref = ref [] in
  let deliver job i (e : Sampled.window_entry) =
    got := (job, i, Result.is_ok e.Sampled.e_result) :: !got
  in
  Wqueue.dispatch wq ~job:"a" ~wu_key:"boom"
    ~exec:(fun () -> failwith "window exploded")
    ~index:0 ~deliver:(deliver "a") ~stopped:never_stopped;
  (* Job b shares the failing unit and also owns a healthy one. *)
  Wqueue.dispatch wq ~job:"b" ~wu_key:"boom"
    ~exec:(fun () -> Alcotest.fail "shared unit must not re-execute")
    ~index:5 ~deliver:(deliver "b") ~stopped:never_stopped;
  Wqueue.dispatch wq ~job:"b" ~wu_key:"fine"
    ~exec:(fun () -> entry_ok (30, 10))
    ~index:6 ~deliver:(deliver "b") ~stopped:never_stopped;
  Wqueue.drain wq ~job:"a";
  Wqueue.drain wq ~job:"b";
  let find job i = List.assoc (job, i) (List.map (fun (j, i, ok) -> ((j, i), ok)) !got) in
  check Alcotest.bool "job a window errored" false (find "a" 0);
  check Alcotest.bool "job b shared window errored" false (find "b" 5);
  check Alcotest.bool "job b healthy window fine" true (find "b" 6);
  check Alcotest.int "failure counted once" 1 (Wqueue.failed wq);
  check Alcotest.int "two executions (boom once, fine once)" 2
    (Wqueue.executed wq);
  check Alcotest.int "b's boom dispatch was shared" 1 (Wqueue.shared_hits wq);
  (* The failed unit was dropped, not cached: the same key recomputes
     (this time successfully) instead of inheriting the error. *)
  Wqueue.dispatch wq ~job:"c" ~wu_key:"boom"
    ~exec:(fun () -> entry_ok (40, 10))
    ~index:0 ~deliver:(deliver "c") ~stopped:never_stopped;
  Wqueue.drain wq ~job:"c";
  check Alcotest.bool "failed unit recomputed, not cached" true (find "c" 0);
  check Alcotest.int "recompute executed" 3 (Wqueue.executed wq);
  (* A finished (successful) unit IS shared with later jobs. *)
  Wqueue.dispatch wq ~job:"d" ~wu_key:"fine"
    ~exec:(fun () -> Alcotest.fail "finished unit must not re-execute")
    ~index:9 ~deliver:(deliver "d") ~stopped:never_stopped;
  Wqueue.drain wq ~job:"d";
  check Alcotest.bool "finished unit shared" true (find "d" 9);
  check Alcotest.int "no new execution for the finished unit" 3
    (Wqueue.executed wq)

(* --------------------------------------------------------- scheduler *)

(* The acceptance contract of the window-granular refactor: two
   concurrent sampled jobs with interleaved arrival produce payloads
   byte-identical to standalone runs, at 1 and 4 worker domains, and
   jobs sharing a program prefix share window work units. The ranked
   job's boundaries are a subset of the plain job's, so every one of
   its windows can be answered by (or joined with) the other job's. *)
let test_scheduler_concurrent_sampled_byte_identical () =
  let plan = plan_exn "200:100:2000:3" in
  let prog = Lazy.force alu_prog in
  let spec_a = Job.make ~plan ~backend:"sampled" prog in
  let spec_b = Job.make ~plan ~rank_bands:2 ~backend:"sampled" prog in
  let solo_a = fst (payload_exn (Job.run spec_a)) in
  let solo_b = fst (payload_exn (Job.run spec_b)) in
  List.iter
    (fun domains ->
      let sched = Scheduler.create ~domains () in
      let ka, _ = Scheduler.submit sched spec_a in
      let kb, _ = Scheduler.submit sched spec_b in
      let pa, _ = payload_exn (Option.get (Scheduler.await sched ka)) in
      let pb, _ = payload_exn (Option.get (Scheduler.await sched kb)) in
      let label s = Printf.sprintf "%s at %d domains" s domains in
      check Alcotest.string (label "job A = standalone") solo_a pa;
      check Alcotest.string (label "job B = standalone") solo_b pb;
      let stat name = List.assoc name (Scheduler.stats sched) in
      check Alcotest.bool (label "windows went through the queue") true
        (stat "windows_executed" > 0);
      check Alcotest.bool (label "cross-job shared shard hits") true
        (stat "windows_shared_shard_hits" > 0);
      check Alcotest.int (label "no window failures") 0 (stat "windows_failed");
      check Alcotest.int (label "queue drained") 0 (stat "windows_inflight");
      Scheduler.shutdown sched)
    [ 1; 4 ]

(* The store holds result payloads only, one entry per job key: window
   checkpoints never reach it, so they cannot evict a payload from a
   small LRU budget. Two sampled jobs over distinct plans on one
   scheduler; a restarted scheduler on the same store answers both from
   disk, byte-identically. *)
let test_scheduler_payloads_survive_small_budget () =
  let prog = Lazy.force alu_prog in
  let sampled plan = Job.make ~plan:(plan_exn plan) ~backend:"sampled" prog in
  let spec_a = sampled "200:100:2000:3" and spec_b = sampled "200:100:2000:5" in
  let dir = fresh_path "bor-serve-budget" in
  let scheduler () =
    Scheduler.create ~domains:1 ~store:(store_exn ~max_bytes:(4 lsl 20) dir) ()
  in
  let sched = scheduler () in
  let ka, _ = Scheduler.submit sched spec_a in
  let pa, _ = payload_exn (Option.get (Scheduler.await sched ka)) in
  let kb, _ = Scheduler.submit sched spec_b in
  let pb, _ = payload_exn (Option.get (Scheduler.await sched kb)) in
  check Alcotest.bool "distinct job keys" true (ka <> kb);
  let stat name = List.assoc name (Scheduler.stats sched) in
  check Alcotest.bool "windows ran through the queue" true
    (stat "windows_executed" > 2);
  check Alcotest.int "nothing evicted" 0 (stat "store_evictions");
  Scheduler.shutdown sched;
  check Alcotest.(list string) "one store entry per job key"
    (List.sort compare [ ka; kb ])
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let sched2 = scheduler () in
  List.iter
    (fun (name, spec, cold) ->
      let key, _ = Scheduler.submit sched2 spec in
      let p, src = payload_exn (Option.get (Scheduler.await sched2 key)) in
      check Alcotest.bool (name ^ " answered from the store") true
        (src = `Cached);
      check Alcotest.string (name ^ " stored bytes identical") cold p)
    [ ("first job", spec_a, pa); ("second job", spec_b, pb) ];
  Scheduler.shutdown sched2

let test_scheduler_paths_byte_identical () =
  let dir = fresh_path "bor-serve-store" in
  let spec = Job.make ~backend:"detailed" (Lazy.force alu_prog) in
  let slow = Job.make ~backend:"detailed" (Lazy.force slow_prog) in
  (* One worker: [slow] occupies it, so [spec] is still queued when
     resubmitted — a deterministic dedup join. *)
  let sched = Scheduler.create ~domains:1 ~store:(store_exn dir) () in
  let _, d_slow = Scheduler.submit sched slow in
  let key, d1 = Scheduler.submit sched spec in
  let key', d2 = Scheduler.submit sched spec in
  check Alcotest.string "same spec, same job id" key key';
  check Alcotest.bool "first submission queued" true (d1 = `Queued);
  check Alcotest.bool "resubmission joined in flight" true (d2 = `Joined);
  check Alcotest.bool "slow job queued" true (d_slow = `Queued);
  let p_cold, src = payload_exn (Option.get (Scheduler.await sched key)) in
  check Alcotest.bool "computed cold" true (src = `Cold);
  (* Now complete: a third submission is a memory hit with the same
     bytes. *)
  let _, d3 = Scheduler.submit sched spec in
  check Alcotest.bool "post-completion submission is a hit" true (d3 = `Hit);
  let p_hit, _ = payload_exn (Option.get (Scheduler.await sched key)) in
  check Alcotest.string "dedup-joined/hit bytes identical" p_cold p_hit;
  let stats = Scheduler.stats sched in
  let stat name = List.assoc name stats in
  check Alcotest.int "submitted" 4 (stat "submitted");
  check Alcotest.int "dedup joins" 1 (stat "dedup_joins");
  check Alcotest.int "memory hit counted" 1 (stat "cache_hits");
  Scheduler.shutdown sched;
  (* A fresh scheduler on the same store answers from disk,
     byte-identically: the cross-restart path. *)
  let sched2 = Scheduler.create ~domains:1 ~store:(store_exn dir) () in
  let key2, _ = Scheduler.submit sched2 spec in
  let p_store, src2 = payload_exn (Option.get (Scheduler.await sched2 key2)) in
  check Alcotest.bool "restart answered from the store" true (src2 = `Cached);
  check Alcotest.string "store bytes identical" p_cold p_store;
  Scheduler.shutdown sched2

let test_scheduler_reports_failures () =
  let sched = Scheduler.create ~domains:1 () in
  let key, _ =
    Scheduler.submit sched (Job.make ~backend:"detailed" (Lazy.force fault_prog))
  in
  check_faulted (Scheduler.await sched key);
  check Alcotest.int "failure counted" 1
    (List.assoc "failed" (Scheduler.stats sched));
  check Alcotest.bool "unknown key" true (Scheduler.await sched "beef" = None);
  Scheduler.shutdown sched;
  Scheduler.shutdown sched;
  (* Idempotent; and submitting after shutdown is a caller error. *)
  match Scheduler.submit sched (Job.make ~backend:"detailed" (Lazy.force alu_prog)) with
  | _ -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* Errors are never memoized (docs/SERVE.md): resubmitting a failed
   key queues a fresh run instead of answering the stored error as a
   memory hit. *)
let test_scheduler_recomputes_failures () =
  let sched = Scheduler.create ~domains:1 () in
  let job = Job.make ~backend:"detailed" (Lazy.force fault_prog) in
  let submit_and_fail () =
    let key, disposition = Scheduler.submit sched job in
    check_faulted (Scheduler.await sched key);
    disposition
  in
  check Alcotest.bool "first submit queued" true (submit_and_fail () = `Queued);
  check Alcotest.bool "resubmit of a failure queued" true
    (submit_and_fail () = `Queued);
  let stats = Scheduler.stats sched in
  check Alcotest.int "both runs failed" 2 (List.assoc "failed" stats);
  check Alcotest.int "no cache hit" 0 (List.assoc "cache_hits" stats);
  Scheduler.shutdown sched

(* A job that raises while its backend is built — here loading a data
   segment that lies past simulated memory, an image [Objfile.load]
   accepts — fails with the fault's text instead of ending the worker
   domain: on one worker, the next job still completes, and the failure
   is not memoized. Waits are bounded, so a dead worker fails the test
   rather than hanging it. *)
let test_scheduler_survives_construction_fault () =
  let await sched key =
    let deadline = Unix.gettimeofday () +. 30. in
    let rec poll () =
      match Scheduler.job_state sched key with
      | Some (Scheduler.Done outcome) -> outcome
      | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "job still pending after 30 s: its worker died"
      | _ ->
        Unix.sleepf 0.005;
        poll ()
    in
    poll ()
  in
  let bad =
    Bor_isa.Program.make ~data_base:0x7ffffff0 ~data:(Bytes.make 64 'x')
      [| Bor_isa.Instr.Halt |]
  in
  let bad = Job.make ~backend:"detailed" bad in
  let sched = Scheduler.create ~domains:1 () in
  let submit_and_fail () =
    let key, disposition = Scheduler.submit sched bad in
    (match await sched key with
    | Error e ->
      check Alcotest.bool "the fault's text" true
        (contains e "does not fit memory")
    | Ok _ -> Alcotest.fail "faulting job reported success");
    disposition
  in
  check Alcotest.bool "first submit queued" true (submit_and_fail () = `Queued);
  let key, _ =
    Scheduler.submit sched (Job.make ~backend:"detailed" (Lazy.force alu_prog))
  in
  (match await sched key with Ok _ -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "the failure is not memoized" true
    (submit_and_fail () = `Queued);
  check Alcotest.int "both faulting runs failed" 2
    (List.assoc "failed" (Scheduler.stats sched));
  Scheduler.shutdown sched

(* A ci_target that six decimals cannot hold would alias another
   target's key, so no job can carry it — the plan's constructor
   refuses it before anything reaches the scheduler. The client frames
   it exactly, so the server refuses it too, rather than reading a
   rounded neighbour. *)
let test_scheduler_rejects_inexact_ci_target () =
  let sched = Scheduler.create ~domains:1 () in
  let prog = Lazy.force alu_prog in
  check Alcotest.bool "job refused" true
    (match
       Job.make ~plan:(plan_exn "200:100:2000:3") ~ci_target:2.0000001
         ~backend:"sampled" prog
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.int "nothing submitted" 0
    (List.assoc "submitted" (Scheduler.stats sched));
  check Alcotest.bool "the client's framing is refused, not rounded" true
    (Result.is_error
       (Server.parse_spec
          (Client.submit_request ~plan:"200:100:2000:3" ~ci_target:2.0000001
             ~backend:"sampled" prog)));
  Scheduler.shutdown sched

(* The serve.* registry counters and [Scheduler.stats] are two views of
   the same counts: after a cold detailed job, its memory hit and one
   sampled job, every counter equals its stats entry. *)
let test_scheduler_registry_matches_stats () =
  let module Telemetry = Bor_telemetry.Telemetry in
  Telemetry.clear ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.clear ())
  @@ fun () ->
  let sched =
    Scheduler.create ~domains:2
      ~store:(store_exn (fresh_path "bor-serve-registry"))
      ()
  in
  let await key =
    ignore (payload_exn (Option.get (Scheduler.await sched key)))
  in
  let detailed = Job.make ~backend:"detailed" (Lazy.force alu_prog) in
  let k1, d1 = Scheduler.submit sched detailed in
  await k1;
  let k2, d2 = Scheduler.submit sched detailed in
  await k2;
  check Alcotest.bool "cold, then hit" true (d1 = `Queued && d2 = `Hit);
  let sampled =
    Job.make ~plan:(plan_exn "500:2000:20000:13") ~backend:"sampled"
      (Lazy.force slow_prog)
  in
  let k3, _ = Scheduler.submit sched sampled in
  await k3;
  Scheduler.shutdown sched;
  let stats = Scheduler.stats sched in
  let registry name =
    match Telemetry.find_counter ("serve." ^ name) with
    | Some v -> v
    | None -> Alcotest.failf "serve.%s not registered" name
  in
  List.iter
    (fun (stat, name) ->
      check Alcotest.int
        (Printf.sprintf "serve.%s = stats %s" name stat)
        (List.assoc stat stats) (registry name))
    [
      ("submitted", "jobs.submitted");
      ("completed", "jobs.completed");
      ("failed", "jobs.failed");
      ("cache_hits", "cache.hits");
      ("cache_misses", "cache.misses");
      ("dedup_joins", "dedup.joins");
      ("windows_dispatched", "windows.dispatched");
      ("windows_executed", "windows.executed");
      ("windows_shared_shard_hits", "windows.shared_shard_hits");
      ("windows_failed", "windows.failed");
    ];
  List.iter
    (fun name ->
      check Alcotest.bool ("serve." ^ name ^ " > 0") true (registry name > 0))
    [ "windows.dispatched"; "windows.executed"; "cache.misses" ]

(* ------------------------------------------------------------ server *)

let test_server_end_to_end () =
  let socket = fresh_path "bor-serve-sock" in
  let sched = Scheduler.create ~domains:2 () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~socket ~on_ready:(fun () -> Atomic.set ready true) sched)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let request req =
    match Client.request ~socket req with
    | Ok resp -> resp
    | Error e -> Alcotest.fail e
  in
  let str name j =
    match Json.member name j with
    | Some (Json.String s) -> s
    | _ -> Alcotest.fail (name ^ " missing")
  in
  let prog = Lazy.force alu_prog in
  let resp = request (Client.submit_request ~backend:"detailed" prog) in
  let key = str "key" resp in
  check Alcotest.string "wire key matches bor digest" key
    (Bor_store.Key.hex
       (Job.key (Job.make ~backend:"detailed" prog)));
  let r1 = request (Client.result_request ~wait:true key) in
  let p1 = str "payload" r1 in
  (* Resubmission: a hit, and the payload bytes are identical. *)
  let resp2 = request (Client.submit_request ~backend:"detailed" prog) in
  check Alcotest.string "resubmission is a hit" "hit" (str "disposition" resp2);
  let p2 = str "payload" (request (Client.result_request ~wait:true key)) in
  check Alcotest.string "served bytes identical" p1 p2;
  (* Status and stats answer; errors are structured, not hangups. *)
  (match Json.member "state" (request (Client.status_request key)) with
  | Some (Json.String "done") -> ()
  | _ -> Alcotest.fail "status should be done");
  (match Json.member "stats" (request Client.stats_request) with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "stats missing");
  (match Client.request ~socket (Json.Obj [ ("op", Json.String "nope") ]) with
  | Ok (Json.Obj fields) ->
    check Alcotest.bool "unknown op refused" true
      (List.assoc_opt "ok" fields = Some (Json.Bool false))
  | Ok _ | Error _ -> Alcotest.fail "unknown op should get a structured error");
  (* Hand-written requests with a target that is not a finite number,
     or that six decimals cannot hold, or with a backend that does not
     exist or does not take their plan, are structured refusals at
     submit — never a queued job under a key of its own. *)
  let submitted = List.assoc "submitted" (Scheduler.stats sched) in
  let target t =
    [
      ("backend", Json.String "sampled");
      ("plan", Json.String "200:100:2000:3");
      ("ci_target", Json.String t);
    ]
  in
  List.iter
    (fun (fields, error) ->
      check Alcotest.string
        (Json.to_string (Json.Obj fields) ^ " refused at submit")
        error
        (str "error"
           (request
              (Json.Obj
                 (("op", Json.String "submit")
                 :: ( "program",
                      Json.String (Wire.to_hex (Bor_isa.Objfile.save prog)) )
                 :: fields)))))
    [
      ( target "nan",
        "submit: CI target must be a finite number >= 0 (--ci-target)" );
      ( target "2.0000001",
        "submit: CI target 2.0000001 is not exact at 6 decimals (--ci-target)"
      );
      ( [
          ("backend", Json.String "detailed");
          ("plan", Json.String "200:100:2000:3");
        ],
        "submit: backend \"detailed\" takes no sampling plan" );
      ( [ ("backend", Json.String "warp") ],
        "submit: unknown backend \"warp\" \
         (expected functional|detailed|warming|sampled)" );
    ];
  check Alcotest.int "nothing queued" submitted
    (List.assoc "submitted" (Scheduler.stats sched));
  ignore (request Client.shutdown_request);
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "socket file removed" false (Sys.file_exists socket)

(* A present submit field of the wrong type, or out of range, is
   refused at decode time with an error naming the field — never
   silently defaulted into some other job's key, and never queued to
   fail at run time. *)
let test_server_refuses_malformed_fields () =
  let prog =
    Json.String (Wire.to_hex (Bor_isa.Objfile.save (Lazy.force alu_prog)))
  in
  let submit fields =
    Server.parse_spec
      (Json.Obj (("op", Json.String "submit") :: ("program", prog) :: fields))
  in
  let sampled fields =
    submit
      (("backend", Json.String "sampled")
      :: ("plan", Json.String "200:100:2000:3")
      :: fields)
  in
  let refused what names = function
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      if not (contains e names) then
        Alcotest.failf "%s: error %S does not name %S" what e names
  in
  refused "string rank_bands" "rank_bands"
    (sampled [ ("rank_bands", Json.String "4") ]);
  refused "integer backend" "backend" (submit [ ("backend", Json.Int 3) ]);
  refused "integer plan" "plan"
    (submit [ ("backend", Json.String "sampled"); ("plan", Json.Int 5) ]);
  refused "boolean ci_target" "ci_target"
    (sampled [ ("ci_target", Json.Bool true) ]);
  refused "nan ci_target" "CI target"
    (sampled [ ("ci_target", Json.String "nan") ]);
  refused "negative ci_target" "CI target"
    (sampled [ ("ci_target", Json.String "-5") ]);
  refused "zero rank_bands" "rank bands"
    (sampled [ ("rank_bands", Json.Int 0) ]);
  refused "rank_bands past the bound" "rank bands"
    (sampled [ ("rank_bands", Json.Int 1_000_000) ]);
  refused "rank_bands without a plan" "plan"
    (submit [ ("rank_bands", Json.Int 4) ]);
  refused "plan on a detailed backend" "\"detailed\""
    (submit
       [
         ("backend", Json.String "detailed");
         ("plan", Json.String "200:100:2000:3");
       ]);
  refused "unknown backend" "\"warp\""
    (submit [ ("backend", Json.String "warp") ]);
  (* An image whose data lies past memory is refused before it is keyed,
     with the fault its run would have raised. *)
  refused "data past memory" "does not fit memory"
    (Server.parse_spec
       (Json.Obj
          [
            ("op", Json.String "submit");
            ( "program",
              Json.String
                (Wire.to_hex
                   (Bor_isa.Objfile.save
                      (Bor_isa.Program.make ~data_base:0x7ffffff0
                         ~data:(Bytes.make 64 'x') [| Bor_isa.Instr.Halt |])))
            );
          ]));
  (* In range, every form is accepted, and the knobs land in the plan
     the job is keyed by. *)
  match
    sampled [ ("rank_bands", Json.Int 64); ("ci_target", Json.Int 2) ]
  with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    check Alcotest.string "keyed like the library-built job"
      (Bor_store.Key.hex
         (Job.key
            (Job.make ~plan:(plan_exn "200:100:2000:3") ~rank_bands:64
               ~ci_target:2. ~backend:"sampled" (Lazy.force alu_prog))))
      (Bor_store.Key.hex (Job.key spec))

(* Malformed frames cost only their own connection (each counted in
   serve.conns.protocol_errors), and the server keeps answering: a
   balanced but 10 000-deep frame, and the frames whose numbers or
   escapes are malformed (a lone minus, an integer past 63 bits, a
   [\u] escape of non-hex digits). Each is sent on a fresh
   connection, which must be closed without an answer; a receive
   timeout turns a server that neither answers nor closes into a
   failure rather than a hang. *)
let test_server_drops_malformed_frames () =
  let module Telemetry = Bor_telemetry.Telemetry in
  let socket = fresh_path "bor-serve-sock-deep" in
  let sched = Scheduler.create ~domains:1 () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Telemetry.set_enabled true;
        let r =
          Server.run ~socket ~on_ready:(fun () -> Atomic.set ready true) sched
        in
        (r, Telemetry.find_counter "serve.conns.protocol_errors"))
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let depth = 10_000 in
  let frames =
    [
      ("deep", String.make depth '[' ^ String.make depth ']');
      ("lone minus", {|{"op": -}|});
      ("64-bit integer", {|{"op": "stats", "n": 9223372036854775807}|});
      ("non-hex \\u escape", {|{"op": "\uzzzz"}|});
    ]
  in
  List.iter
    (fun (name, frame) ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Wire.write_frame fd frame;
      (match Wire.read_frame fd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "%s frame: neither answered nor closed" name
      | None | (exception (Wire.Protocol_error _ | Unix.Unix_error _)) -> ()
      | Some reply -> Alcotest.failf "%s frame answered: %s" name reply);
      Unix.close fd)
    frames;
  (match Client.request ~socket Client.stats_request with
  | Ok resp ->
      check Alcotest.bool "stats still answered" true
        (Json.member "ok" resp = Some (Json.Bool true))
  | Error e -> Alcotest.fail e);
  ignore (Client.request ~socket Client.shutdown_request);
  let r, errors = Domain.join server in
  (match r with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.(option int) "serve.conns.protocol_errors"
    (Some (List.length frames)) errors

(* A client that submits a slow job, asks for its result with [wait]
   and closes its socket before the answer: when the job finishes, the
   reply fails as EPIPE and costs only that connection, counted as an
   I/O error and not as a protocol error (without [Server.run]
   ignoring SIGPIPE, the signal would end this whole test binary).
   Afterwards stats still answers, and later connections find
   the vanished one gone: [serve.conns.active] observes 0 at an accept
   after it, not only at the first. *)
let test_server_survives_vanished_waiter () =
  let module Telemetry = Bor_telemetry.Telemetry in
  let socket = fresh_path "bor-serve-sock-gone" in
  let sched = Scheduler.create ~domains:1 () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Telemetry.set_enabled true;
        let r =
          Server.run ~socket ~on_ready:(fun () -> Atomic.set ready true) sched
        in
        ( r,
          Telemetry.find_counter "serve.conns.protocol_errors",
          Telemetry.find_counter "serve.conns.io_errors",
          Json.member "serve.conns.active" (Telemetry.to_json ()) ))
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Wire.write_json fd
    (Client.submit_request ~backend:"detailed" (Lazy.force slow_prog));
  let key =
    match Option.bind (Wire.read_json fd) (Json.member "key") with
    | Some (Json.String k) -> k
    | _ -> Alcotest.fail "submit answered without a key"
  in
  Wire.write_json fd (Client.result_request ~wait:true key);
  Unix.close fd;
  let t0 = Unix.gettimeofday () in
  let rec until_done () =
    match Scheduler.job_state sched key with
    | Some (Scheduler.Done outcome) -> ignore (payload_exn outcome)
    | _ when Unix.gettimeofday () -. t0 > 30. -> Alcotest.fail "job never finished"
    | _ ->
      Unix.sleepf 0.005;
      until_done ()
  in
  until_done ();
  for _ = 1 to 10 do
    Unix.sleepf 0.02;
    match Client.request ~socket Client.stats_request with
    | Ok resp ->
      check Alcotest.bool "stats still answered" true
        (Json.member "ok" resp = Some (Json.Bool true))
    | Error e -> Alcotest.fail e
  done;
  ignore (Client.request ~socket Client.shutdown_request);
  let r, protocol_errors, io_errors, active = Domain.join server in
  (match r with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.(option int) "the failed reply cost one connection" (Some 1)
    io_errors;
  check Alcotest.(option int) "a vanished client is no protocol error"
    (Some 0) protocol_errors;
  let zeros =
    match Option.bind active (Json.member "buckets") with
    | Some (Json.List (b :: _)) when Json.member "le" b = Some (Json.Int 0) -> (
      match Json.member "count" b with Some (Json.Int n) -> n | _ -> 0)
    | _ -> 0
  in
  check Alcotest.bool "a later accept saw no live connection" true (zeros >= 2)

(* Two clients on two live connections, each submitting a sampled job
   and blocking in [result wait] while the other's windows share the
   queue: the concurrent-connection front end plus the window queue,
   end to end — and both payloads byte-identical to standalone runs. *)
let test_server_concurrent_clients () =
  let socket = fresh_path "bor-serve-sock-cc" in
  let metrics = fresh_path "bor-serve-metrics" in
  let sched = Scheduler.create ~domains:2 () in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~socket ~metrics_socket:metrics
          ~on_ready:(fun () -> Atomic.set ready true)
          sched)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let prog = Lazy.force alu_prog in
  let plan_s = "200:100:2000:3" in
  let solo rank_bands =
    fst
      (payload_exn
         (Job.run
            (Job.make ~plan:(plan_exn plan_s) ~rank_bands ~backend:"sampled"
               prog)))
  in
  let solo_a = solo 1 and solo_b = solo 2 in
  let client rank_bands () =
    match
      Client.request ~socket
        (Client.submit_request ~plan:plan_s ~rank_bands ~backend:"sampled" prog)
    with
    | Error e -> Error e
    | Ok resp -> (
        match Json.member "key" resp with
        | Some (Json.String key) -> (
            match Client.request ~socket (Client.result_request ~wait:true key) with
            | Error e -> Error e
            | Ok r -> (
                match Json.member "payload" r with
                | Some (Json.String p) -> Ok p
                | _ -> Error ("no payload: " ^ Json.to_string r)))
        | _ -> Error ("no key: " ^ Json.to_string resp))
  in
  let ca = Domain.spawn (client 1) and cb = Domain.spawn (client 2) in
  let pa = Domain.join ca and pb = Domain.join cb in
  (match pa with
  | Ok p -> check Alcotest.string "client A = standalone" solo_a p
  | Error e -> Alcotest.fail e);
  (match pb with
  | Ok p -> check Alcotest.string "client B = standalone" solo_b p
  | Error e -> Alcotest.fail e);
  (* The jobs shared window work units, visible in the stats op... *)
  (match Client.request ~socket Client.stats_request with
  | Ok resp -> (
      match Json.member "stats" resp with
      | Some stats ->
          check Alcotest.bool "stats report cross-job shared windows" true
            (match Json.member "windows_shared_shard_hits" stats with
            | Some (Json.Int n) -> n > 0
            | _ -> false)
      | None -> Alcotest.fail "stats missing")
  | Error e -> Alcotest.fail e);
  (* ...and in the plaintext metrics dump. *)
  let metrics_text =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX metrics);
    let b = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec slurp () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes b chunk 0 n;
          slurp ()
    in
    slurp ();
    Unix.close fd;
    Buffer.contents b
  in
  let has_line prefix =
    List.exists
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' metrics_text)
  in
  check Alcotest.bool "metrics dump has queue depth" true
    (has_line "bor_serve_windows_queued ");
  check Alcotest.bool "metrics dump has shared hits" true
    (has_line "bor_serve_windows_shared_shard_hits ");
  check Alcotest.bool "metrics dump has executed windows" true
    (has_line "bor_serve_windows_executed ");
  ignore (Client.request ~socket Client.shutdown_request);
  (match Domain.join server with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "metrics socket file removed" false
    (Sys.file_exists metrics)

let () =
  Alcotest.run "bor_serve"
    [
      ( "wire",
        [
          Alcotest.test_case "frame round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "a frame's claimed length costs nothing" `Quick
            test_wire_claim_costs_nothing;
          Alcotest.test_case "hex round trip" `Quick test_hex_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 30 |])
            prop_hex_roundtrip;
          QCheck_alcotest.to_alcotest prop_object_image_decoder;
        ] );
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
          Alcotest.test_case "propagates first failure" `Quick
            test_pool_propagates_first_failure;
          Alcotest.test_case "init per domain" `Quick
            test_pool_runs_init_per_participant;
          Alcotest.test_case "nested map completes" `Quick test_pool_nested_map;
          Alcotest.test_case "workers start each task clean" `Quick
            test_pool_workers_start_clean;
          Alcotest.test_case "sampled run inside a pool item" `Quick
            test_pool_sampled_inside_item;
          Alcotest.test_case "200 back-to-back calls" `Quick
            test_pool_back_to_back;
          Alcotest.test_case "one wait protocol under stress" `Quick
            test_stress_one_protocol;
        ] );
      ( "job",
        [
          Alcotest.test_case "payload deterministic" `Quick
            test_job_payload_deterministic;
          Alcotest.test_case "ci-target job: all paths byte-identical" `Quick
            test_job_ci_target_all_paths_identical;
          Alcotest.test_case "rejects unknown backend" `Quick
            test_job_rejects_unknown_backend;
        ] );
      ( "wqueue",
        [
          Alcotest.test_case "failure isolated, never cached" `Quick
            test_wqueue_failure_isolated_never_cached;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "all answer paths byte-identical" `Quick
            test_scheduler_paths_byte_identical;
          Alcotest.test_case "concurrent sampled jobs byte-identical" `Quick
            test_scheduler_concurrent_sampled_byte_identical;
          Alcotest.test_case "payloads survive a small store budget" `Quick
            test_scheduler_payloads_survive_small_budget;
          Alcotest.test_case "failures and shutdown" `Quick
            test_scheduler_reports_failures;
          Alcotest.test_case "failed jobs are recomputed" `Quick
            test_scheduler_recomputes_failures;
          Alcotest.test_case "a construction fault fails only its job" `Quick
            test_scheduler_survives_construction_fault;
          Alcotest.test_case "rejects an inexact ci target" `Quick
            test_scheduler_rejects_inexact_ci_target;
          Alcotest.test_case "registry matches stats" `Quick
            test_scheduler_registry_matches_stats;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "refuses malformed submit fields" `Quick
            test_server_refuses_malformed_fields;
          Alcotest.test_case "drops malformed frames" `Quick
            test_server_drops_malformed_frames;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "a client gone mid-wait costs its connection"
            `Quick test_server_survives_vanished_waiter;
        ] );
    ]
