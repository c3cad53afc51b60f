(* Tests for Bor_store: content-address keys (canonical preimages,
   sensitivity to every component), the content-addressed store's
   hit/miss round trips, corrupted-entry detection (never serves bad
   bytes — callers fall back to recompute), concurrent writers racing
   safely through atomic tmp-rename, mtime-LRU eviction under a byte
   budget, and the Backend.run_cached adapter. *)

module Key = Bor_store.Key
module Store = Bor_store.Store
module Backend = Bor_exec.Backend
module Checkpoint = Bor_exec.Checkpoint
module Sampled = Bor_exec.Sampled

let check = Alcotest.check

let prog =
  lazy
    (Bor_minic.Driver.compile_exn "int main() { return 7; }")
      .Bor_minic.Driver.program

let prog2 =
  lazy
    (Bor_minic.Driver.compile_exn "int main() { return 8; }")
      .Bor_minic.Driver.program

let key ?config ?plan kind =
  Key.make ~program:(Lazy.force prog) ?config ?plan ~kind ()

(* [plan] with its ranked-set / stopping knobs replaced. *)
let with_knobs ?rank_bands ?ci_target plan =
  match Bor_uarch.Sampling_plan.with_selection ?rank_bands ?ci_target plan with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bor-store-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat dir f))
       (try Sys.readdir dir with Sys_error _ -> [||]);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  dir

let store_exn ?max_bytes dir =
  match Store.create ?max_bytes dir with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let entry_path dir k = Filename.concat dir (Key.hex k)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------- keys *)

let test_key_deterministic () =
  check Alcotest.string "same inputs, same address" (Key.hex (key "detailed"))
    (Key.hex (key "detailed"));
  check Alcotest.int "64 hex chars" 64 (String.length (Key.hex (key "detailed")))

let test_key_covers_every_component () =
  let base = Key.hex (key "detailed") in
  let plan =
    match Bor_uarch.Sampling_plan.of_string "200:100:2000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let different name hex =
    if String.equal base hex then Alcotest.fail (name ^ ": key did not change")
  in
  different "kind" (Key.hex (key "sampled"));
  different "plan" (Key.hex (key ~plan "detailed"));
  different "config"
    (Key.hex
       (key ~config:{ Bor_uarch.Config.default with ghist_bits = 4 } "detailed"));
  different "program"
    (Key.hex (Key.make ~program:(Lazy.force prog2) ~kind:"detailed" ()));
  (* The plan's ranked-set / CI-stopping knobs change the measured
     result, so they must change the address — but their default values
     must leave every pre-existing key untouched (no preimage line at
     all, so old cache entries stay valid). *)
  let sampled = Key.hex (key ~plan "sampled") in
  let knobs ?rank_bands ?ci_target () =
    Key.hex (key ~plan:(with_knobs ?rank_bands ?ci_target plan) "sampled")
  in
  let different name hex =
    if String.equal sampled hex then
      Alcotest.fail (name ^ ": key did not change")
  in
  different "rank bands" (knobs ~rank_bands:4 ());
  different "ci target" (knobs ~ci_target:2. ());
  check Alcotest.string "default rank bands is the unextended preimage"
    sampled (knobs ~rank_bands:1 ());
  check Alcotest.string "default ci target is the unextended preimage"
    sampled (knobs ~ci_target:0. ());
  if String.equal (knobs ~rank_bands:4 ()) (knobs ~ci_target:2. ()) then
    Alcotest.fail "rank bands and ci target alias each other"

let test_key_preimage_and_bad_kind () =
  let k = key "detailed" in
  let pre = Key.preimage k in
  check Alcotest.bool "versioned" true (contains pre "bor-key-v1");
  check Alcotest.bool "names the kind" true (contains pre "kind=detailed");
  check Alcotest.bool "canonical config is embedded" true
    (contains pre (Key.canon_config Bor_uarch.Config.default));
  check Alcotest.bool "empty kind rejected" true
    (match key "" with _ -> false | exception Invalid_argument _ -> true);
  check Alcotest.bool "multi-line kind rejected" true
    (match key "a\nb" with _ -> false | exception Invalid_argument _ -> true)

(* [ci_target] enters the preimage as [%.6f]: a target that rendering
   cannot hold exactly is refused — by the plan's constructor, so no
   key can carry it — instead of sharing a neighbour's key (2.0000001
   vs 2.0000004) or posing as the default (1e-7 renders as 0.000000).
   Targets that six decimals hold keep their keys. *)
let test_key_rejects_inexact_ci_target () =
  let plan =
    match Bor_uarch.Sampling_plan.of_string "200:100:2000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let rejected ci_target =
    Result.is_error (Bor_uarch.Sampling_plan.with_selection ~ci_target plan)
  in
  let key ~ci_target kind = key ~plan:(with_knobs ~ci_target plan) kind in
  List.iter
    (fun pct ->
      check Alcotest.bool (Printf.sprintf "%g rejected" pct) true
        (rejected pct))
    [ 2.0000001; 2.0000004; 1e-7; 1. /. 3. ];
  List.iter
    (fun pct ->
      check Alcotest.bool (Printf.sprintf "%g accepted" pct) false
        (rejected pct))
    [ 0.; 0.5; 2.; 5.; 0.000001; 12.345678 ];
  if
    String.equal
      (Key.hex (key ~ci_target:2. "sampled"))
      (Key.hex (key ~ci_target:2.000001 "sampled"))
  then Alcotest.fail "targets one microunit apart alias"

(* ----------------------------------------------------- shard keys *)

let plan_exn s =
  match Bor_uarch.Sampling_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_shard_key_covers_every_component () =
  let pd = Checkpoint.program_digest (Lazy.force prog) in
  let plan = plan_exn "20:30:120:3" in
  let shard ?(pd = pd) ?config ?(plan = plan) boundary =
    Key.hex (Key.shard ~program_digest:pd ?config ~plan ~boundary ())
  in
  let base = shard 0 in
  check Alcotest.string "same inputs, same address" base (shard 0);
  check Alcotest.int "64 hex chars" 64 (String.length base);
  let different name hex =
    if String.equal base hex then
      Alcotest.fail (name ^ ": shard key did not change")
  in
  different "boundary" (shard 1);
  (* The whole plan is in the preimage — boundary placement depends on
     every field, the random phase seed included. *)
  different "plan period" (shard ~plan:(plan_exn "20:30:240:3") 0);
  different "plan seed" (shard ~plan:(plan_exn "20:30:120:4") 0);
  different "config"
    (shard ~config:{ Bor_uarch.Config.default with ghist_bits = 4 } 0);
  different "program"
    (shard ~pd:(Checkpoint.program_digest (Lazy.force prog2)) 0);
  (* Separate versioned family: a shard address can never alias a
     result/checkpoint address, and no bor-key-v1 hex moved. *)
  let k = Key.shard ~program_digest:pd ~plan ~boundary:0 () in
  check Alcotest.bool "bor-shard-v1 family" true
    (contains (Key.preimage k) "bor-shard-v1");
  check Alcotest.bool "not a bor-key-v1 preimage" false
    (contains (Key.preimage k) "bor-key-v1");
  check Alcotest.bool "negative boundary rejected" true
    (match Key.shard ~program_digest:pd ~plan ~boundary:(-1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The content-address formats themselves, frozen: any change to a
   preimage (a config field added to or dropped from the canonical
   rendering, a reordered component) re-addresses every stored result
   and shard, so it must show up here as a failing hex, not silently. *)
let test_frozen_key_hexes () =
  let plan = plan_exn "200:100:2000:7" in
  check Alcotest.string "bor-key-v1 detailed"
    "c2556378d5fc8d2a18b0c3520c089c22eafb29334333d7f6b16f0611d9d8d10d"
    (Key.hex (key "detailed"));
  check Alcotest.string "bor-key-v1 sampled, ranked"
    "e7b828c30b686d6d6a2fc0d8e614179d8203161d033d8bc54001ce146a6642a9"
    (Key.hex (key ~plan:(with_knobs ~rank_bands:4 plan) "sampled"));
  check Alcotest.string "bor-shard-v1 boundary 0"
    "8dfad85b3f5a44ea48cff69722da2a4e24c1a48fa63c8d0013a25d6665102742"
    (Key.hex
       (Key.shard
          ~program_digest:(Checkpoint.program_digest (Lazy.force prog))
          ~plan ~boundary:0 ()))

let loop_prog =
  lazy
    (Bor_minic.Driver.compile_exn
       "int main() { int i; int s = 0; for (i = 0; i < 2000; i = i + 1) s = \
        s + i; return s; }")
      .Bor_minic.Driver.program

let test_shard_bit_exact_vs_rewarming () =
  let prog = Lazy.force loop_prog in
  let plan = plan_exn "20:30:120:1" in
  let config = Bor_uarch.Config.default in
  (* Run a sampled job through a recording runner: it keeps the
     checkpoint dispatched at boundary 0 (the state the serve window
     queue addresses by that boundary's shard key) and runs every
     window inline. *)
  let at_zero = ref [] in
  let runner (ctx : Sampled.exec_ctx) =
    {
      Sampled.r_dispatch =
        (fun ~index ~boundary ck ->
          if boundary = 0 then at_zero := Checkpoint.to_string ck :: !at_zero;
          ctx.Sampled.xc_deliver index
            { Sampled.e_result = ctx.Sampled.xc_window ck; e_tel = None });
      r_drain = (fun () -> ());
    }
  in
  (match (Backend.sampled ~config ~plan ~runner prog).Backend.run () with
  | Ok (Backend.Sampled s) ->
    check Alcotest.bool "windows ran" true (s.Sampled.sp_windows > 0)
  | Ok _ -> Alcotest.fail "unexpected report kind"
  | Error e -> Alcotest.fail e);
  (* Independently rewarm to the first capture point: a fresh pipeline
     fast-forwarded by the plan's first random offset is exactly the
     state the sweep checkpointed at boundary 0, so the dispatched
     checkpoint must reproduce it byte for byte. *)
  let t = Bor_uarch.Pipeline.create ~config prog in
  let offset = Bor_uarch.Sampling_plan.phase_stream plan () in
  ignore (Bor_uarch.Pipeline.run_warming ~max_steps:offset t);
  let ck =
    Checkpoint.capture ~program_digest:(Checkpoint.program_digest prog) t
  in
  match !at_zero with
  | [ dispatched ] ->
    check Alcotest.string "shard is bit-exact vs independent rewarming"
      (Checkpoint.to_string ck) dispatched
  | l ->
    Alcotest.failf "%d checkpoints dispatched at boundary 0, expected 1"
      (List.length l)

(* ------------------------------------------------------------ store *)

let test_hit_miss_roundtrip () =
  let dir = fresh_dir () in
  let st = store_exn dir in
  let k = key "detailed" in
  check Alcotest.bool "fresh store misses" true (Store.find st k = None);
  (match Store.put st k "payload-bytes" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.(option string) "hit returns the bytes" (Some "payload-bytes")
    (Store.find st k);
  check Alcotest.bool "other key still misses" true
    (Store.find st (key "sampled") = None);
  let s = Store.stats st in
  check Alcotest.int "hits" 1 s.Store.st_hits;
  check Alcotest.int "misses" 2 s.Store.st_misses;
  check Alcotest.int "puts" 1 s.Store.st_puts;
  check Alcotest.int "corrupt" 0 s.Store.st_corrupt;
  check Alcotest.bool "entry file named by the key hex" true
    (Sys.file_exists (entry_path dir k))

(* A full disk is an error, not a false success. /dev/full stands in
   for the disk through a symlink at the store's next temp name: the
   write's flush fails at close, so [put] returns [Error], counts no put
   and renames nothing into place. *)
let test_full_disk_is_an_error () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = fresh_dir () in
  let st = store_exn dir in
  let k = key "detailed" in
  Unix.symlink "/dev/full"
    (Filename.concat dir
       (Printf.sprintf ".tmp.%d.%d.0" (Unix.getpid ()) (Domain.self () :> int)));
  (match Store.put st k "payload-bytes" with
  | Ok () -> Alcotest.fail "a put to a full disk reported success"
  | Error e ->
    check Alcotest.bool "names the failed write" true
      (contains e "No space left on device"));
  check Alcotest.int "no put counted" 0 (Store.stats st).Store.st_puts;
  check Alcotest.bool "no entry renamed into place" false
    (Sys.file_exists (entry_path dir k));
  check Alcotest.bool "still a miss" true (Store.find st k = None)

let corrupt_file path f =
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f raw);
  close_out oc

let test_corrupt_entry_is_a_miss () =
  let flip raw =
    (* Flip one payload bit past the "BORSTORE1\n" magic. *)
    let b = Bytes.of_string raw in
    let i = 12 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  let cases =
    [
      ("bit flip", flip);
      ("truncation", fun raw -> String.sub raw 0 (String.length raw / 2));
      ("wrong magic", fun raw -> "XORSTORE1\n" ^ String.sub raw 10 (String.length raw - 10));
      ("empty file", fun _ -> "");
    ]
  in
  List.iteri
    (fun i (name, mutate) ->
      let dir = fresh_dir () in
      let st = store_exn dir in
      let k = key "detailed" in
      (match Store.put st k "precious payload" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      corrupt_file (entry_path dir k) mutate;
      check Alcotest.bool (name ^ ": never serves bad bytes") true
        (Store.find st k = None);
      check Alcotest.bool (name ^ ": offender deleted") false
        (Sys.file_exists (entry_path dir k));
      let s = Store.stats st in
      check Alcotest.int (name ^ ": counted corrupt") 1 s.Store.st_corrupt;
      ignore i)
    cases

let test_corrupt_falls_back_to_recompute () =
  let dir = fresh_dir () in
  let st = store_exn dir in
  let k = key "detailed" in
  let computes = ref 0 in
  let run () =
    Backend.run_cached ~store:st ~key:k
      ~render:(fun _ ->
        incr computes;
        "recomputed-bytes")
      (fun () -> Ok (Backend.functional (Lazy.force prog)))
  in
  (match run () with
  | Ok (p, `Cold) -> check Alcotest.string "cold bytes" "recomputed-bytes" p
  | Ok (_, `Cached) -> Alcotest.fail "fresh store cannot hit"
  | Error e -> Alcotest.fail e);
  corrupt_file (entry_path dir k) (fun raw -> String.sub raw 0 20);
  (match run () with
  | Ok (p, `Cold) ->
    check Alcotest.string "recomputed after corruption" "recomputed-bytes" p
  | Ok (_, `Cached) -> Alcotest.fail "served a corrupted entry"
  | Error e -> Alcotest.fail e);
  check Alcotest.int "computed twice" 2 !computes;
  (* The recompute republished a good entry. *)
  match run () with
  | Ok (_, `Cached) -> ()
  | Ok (_, `Cold) -> Alcotest.fail "republished entry not served"
  | Error e -> Alcotest.fail e

let test_concurrent_writers_race_safely () =
  let st = store_exn (fresh_dir ()) in
  let k = key "detailed" in
  (* A payload big enough that a torn (non-atomic) write would be
     caught by the digest stamp. *)
  let payload = String.init 65_536 (fun i -> Char.chr (i land 0xff)) in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              match Store.put st k payload with
              | Ok () -> ()
              | Error e -> failwith e
            done))
  in
  (* Read concurrently with the writers: every observed entry must be
     complete (atomic rename means no reader sees a partial write). *)
  for _ = 1 to 100 do
    match Store.find st k with
    | None -> ()
    | Some got ->
      if not (String.equal got payload) then
        Alcotest.fail "reader observed a partial or corrupt entry"
  done;
  List.iter Domain.join writers;
  check Alcotest.(option string) "last write wins with intact bytes"
    (Some payload) (Store.find st k);
  check Alcotest.int "no entry was ever corrupt" 0
    (Store.stats st).Store.st_corrupt

let test_lru_eviction () =
  let payload = String.make 100 'x' in
  (* Entry file = 10 (magic) + 100 (payload) + 64 (stamp) = 174 bytes;
     budget of 550 holds three entries, never four. *)
  let dir = fresh_dir () in
  let st = store_exn ~max_bytes:550 dir in
  let ka = key "a" and kb = key "b" and kc = key "c" in
  List.iter
    (fun k ->
      match Store.put st k payload with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ ka; kb; kc ];
  (* Pin distinct access times so the LRU order is explicit, oldest
     first: a, then b, then c. *)
  Unix.utimes (entry_path dir ka) 1000. 1000.;
  Unix.utimes (entry_path dir kb) 2000. 2000.;
  Unix.utimes (entry_path dir kc) 3000. 3000.;
  (match Store.put st (key "d") payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "least recently used evicted" true
    (Store.find st ka = None);
  check Alcotest.bool "younger entry kept" true (Store.find st kb <> None);
  check Alcotest.int "one eviction" 1 (Store.stats st).Store.st_evictions;
  (* A hit refreshes LRU order: touch b, age c, and the next put must
     evict c, not b. *)
  Unix.utimes (entry_path dir kc) 100. 100.;
  ignore (Store.find st kb);
  (match Store.put st (key "e") payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "hit-refreshed entry survives" true
    (Sys.file_exists (entry_path dir kb));
  check Alcotest.bool "aged entry evicted instead" false
    (Sys.file_exists (entry_path dir kc))

let test_create_validates () =
  check Alcotest.bool "non-positive budget rejected" true
    (match Store.create ~max_bytes:0 (fresh_dir ()) with
    | Error _ -> true
    | Ok _ -> false);
  let nested = Filename.concat (fresh_dir ()) "a/b/c" in
  match Store.create nested with
  | Ok _ ->
    check Alcotest.bool "creates nested dirs" true (Sys.is_directory nested)
  | Error e -> Alcotest.fail e

(* -------------------------------------------------- exec adapters *)

let test_run_cached_cold_then_cached () =
  let st = store_exn (fresh_dir ()) in
  let k = key "functional" in
  let run () =
    Backend.run_cached ~store:st ~key:k
      ~render:(fun report ->
        match report with
        | Backend.Functional { instructions } ->
          Printf.sprintf "ran %d instructions" instructions
        | _ -> Alcotest.fail "wrong report kind")
      (fun () -> Ok (Backend.functional (Lazy.force prog)))
  in
  let cold =
    match run () with
    | Ok (p, `Cold) -> p
    | Ok (_, `Cached) -> Alcotest.fail "first run cannot be cached"
    | Error e -> Alcotest.fail e
  in
  match run () with
  | Ok (p, `Cached) -> check Alcotest.string "byte-identical" cold p
  | Ok (_, `Cold) -> Alcotest.fail "second run missed the cache"
  | Error e -> Alcotest.fail e

let test_run_cached_never_caches_errors () =
  let st = store_exn (fresh_dir ()) in
  let k = key "failing" in
  let attempts = ref 0 in
  let run () =
    Backend.run_cached ~store:st ~key:k
      ~render:(fun _ -> "unreachable")
      (fun () ->
        incr attempts;
        Error "boom")
  in
  (match run () with Error "boom" -> () | _ -> Alcotest.fail "expected error");
  (match run () with Error "boom" -> () | _ -> Alcotest.fail "expected error");
  check Alcotest.int "every attempt recomputed" 2 !attempts;
  check Alcotest.int "nothing was published" 0 (Store.stats st).Store.st_puts

let () =
  Alcotest.run "bor_store"
    [
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "covers every component" `Quick
            test_key_covers_every_component;
          Alcotest.test_case "preimage and bad kinds" `Quick
            test_key_preimage_and_bad_kind;
          Alcotest.test_case "rejects an inexact ci target" `Quick
            test_key_rejects_inexact_ci_target;
          Alcotest.test_case "frozen key and shard hexes" `Quick
            test_frozen_key_hexes;
        ] );
      ( "shard",
        [
          Alcotest.test_case "shard key covers every component" `Quick
            test_shard_key_covers_every_component;
          Alcotest.test_case "shard is bit-exact vs rewarming" `Quick
            test_shard_bit_exact_vs_rewarming;
        ] );
      ( "store",
        [
          Alcotest.test_case "hit/miss round trip" `Quick
            test_hit_miss_roundtrip;
          Alcotest.test_case "corrupt entries are misses" `Quick
            test_corrupt_entry_is_a_miss;
          Alcotest.test_case "corrupt falls back to recompute" `Quick
            test_corrupt_falls_back_to_recompute;
          Alcotest.test_case "concurrent writers race safely" `Quick
            test_concurrent_writers_race_safely;
          Alcotest.test_case "LRU eviction by byte budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "a full disk is an error" `Quick
            test_full_disk_is_an_error;
        ] );
      ( "exec",
        [
          Alcotest.test_case "run_cached cold then cached" `Quick
            test_run_cached_cold_then_cached;
          Alcotest.test_case "errors are never cached" `Quick
            test_run_cached_never_caches_errors;
        ] );
    ]
