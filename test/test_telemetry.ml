(* Tests for Bor_telemetry: the registry's enabled/disabled semantics,
   JSON round-tripping, the SHA-256 used for bench digests, and the
   determinism contract the @bench-check alias relies on (identical
   counters across identical runs). *)

let check = Alcotest.check

module Telemetry = Bor_telemetry.Telemetry
module Json = Bor_telemetry.Json
module Sha256 = Bor_telemetry.Sha256

(* Every test owns the global registry for its duration. *)
let with_registry ?(enabled = true) f =
  Telemetry.clear ();
  Telemetry.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.clear ())
    f

(* ----------------------------------------------------------- registry *)

let test_counter_basics () =
  with_registry (fun () ->
      let sc = Telemetry.scope "t" in
      let c = Telemetry.counter sc "hits" in
      Telemetry.incr c;
      Telemetry.incr c;
      Telemetry.add c 40;
      check Alcotest.int "value" 42 (Telemetry.value c);
      check
        Alcotest.(option int)
        "find_counter" (Some 42)
        (Telemetry.find_counter "t.hits");
      check
        Alcotest.(list (pair string int))
        "counters" [ ("t.hits", 42) ] (Telemetry.counters ()))

let test_same_name_aggregates () =
  (* Creating the same instrument twice (as every fresh Pipeline.create
     does) must return the same underlying cell. *)
  with_registry (fun () ->
      let sc = Telemetry.scope "t" in
      let a = Telemetry.counter sc "n" in
      let b = Telemetry.counter sc "n" in
      Telemetry.incr a;
      Telemetry.incr b;
      check Alcotest.int "shared" 2 (Telemetry.value a);
      check Alcotest.int "one entry" 1 (List.length (Telemetry.counters ()));
      Alcotest.check_raises "kind clash" (Invalid_argument
        "Telemetry: t.n re-registered as a different kind") (fun () ->
          ignore (Telemetry.histogram sc "n")))

let test_disabled_records_nothing () =
  (* The zero-cost contract: instruments created while disabled are
     dead — they never register and never accumulate. *)
  with_registry ~enabled:false (fun () ->
      let sc = Telemetry.scope "dead" in
      let c = Telemetry.counter sc "c" in
      let h = Telemetry.histogram sc "h" in
      let s = Telemetry.span sc "s" in
      Telemetry.incr c;
      Telemetry.add c 10;
      Telemetry.observe h 5;
      Telemetry.record s 7;
      check Alcotest.int "counter stays 0" 0 (Telemetry.value c);
      check Alcotest.(list (pair string int)) "no counters" []
        (Telemetry.counters ());
      check Alcotest.string "empty registry json" "{}\n"
        (Json.to_string (Telemetry.to_json ())))

let test_reset_keeps_registrations () =
  with_registry (fun () ->
      let sc = Telemetry.scope "t" in
      let c = Telemetry.counter sc "c" in
      Telemetry.add c 9;
      Telemetry.reset ();
      check Alcotest.int "zeroed" 0 (Telemetry.value c);
      check
        Alcotest.(list (pair string int))
        "still registered" [ ("t.c", 0) ] (Telemetry.counters ());
      Telemetry.incr c;
      check Alcotest.int "still live" 1 (Telemetry.value c))

let test_pp_groups_scopes () =
  (* By full name "a.b.y" sorts between "a.a" and "a.x"; the text dump
     must still print the [a] group once, with [a.b] after it. *)
  with_registry (fun () ->
      let a = Telemetry.scope "a" and ab = Telemetry.scope "a.b" in
      List.iter
        (fun (sc, n) -> ignore (Telemetry.counter sc n))
        [ (a, "a"); (a, "x"); (ab, "y"); (a, "z") ];
      let text = Format.asprintf "%a" Telemetry.pp () in
      let headers =
        String.split_on_char '\n' text
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '[')
      in
      check Alcotest.(list string) "one header per scope" [ "[a]"; "[a.b]" ]
        headers)

let test_histogram_buckets () =
  with_registry (fun () ->
      let h = Telemetry.histogram (Telemetry.scope "t") "lat" in
      List.iter (Telemetry.observe h) [ 0; 1; 2; 3; 1024 ];
      match Json.member "t.lat" (Telemetry.to_json ()) with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some j ->
        let int_of field =
          match Json.member field j with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.failf "bad %s" field
        in
        check Alcotest.int "count" 5 (int_of "count");
        check Alcotest.int "sum" 1030 (int_of "sum");
        check Alcotest.int "max" 1024 (int_of "max");
        (match Json.member "buckets" j with
        | Some (Json.List buckets) ->
          (* value 0 → bucket 0; 1 → [1,1]; 2,3 → [2,3]; 1024 → bucket 11. *)
          check Alcotest.int "bucket list trimmed to max" 12
            (List.length buckets)
        | _ -> Alcotest.fail "no bucket list"))

let test_span_min_max () =
  with_registry (fun () ->
      let s = Telemetry.span (Telemetry.scope "t") "run" in
      List.iter (Telemetry.record s) [ 30; 10; 20 ];
      match Json.member "t.run" (Telemetry.to_json ()) with
      | None -> Alcotest.fail "span missing"
      | Some j ->
        let int_of field =
          match Json.member field j with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.failf "bad %s" field
        in
        check Alcotest.int "count" 3 (int_of "count");
        check Alcotest.int "total" 60 (int_of "total");
        check Alcotest.int "min" 10 (int_of "min");
        check Alcotest.int "max" 30 (int_of "max"))

(* ---------------------------------------------------------------- JSON *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("str", Json.String "line\nwith \"quotes\" and \\ tab\t");
        ("list", Json.List [ Json.Int 1; Json.String "two"; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]);
      ]
  in
  check Alcotest.bool "roundtrip" true
    (Json.of_string (Json.to_string v) = v)

(* The emitted bytes of one value that uses every escape class (quote,
   backslash, the three named controls, the other controls as \u00XX)
   beside characters that go out raw (DEL, bytes from 0x80, '/'), in a
   key and a value, with the layout's every case: frozen, so neither
   the escaping nor the indentation can drift. *)
let test_json_frozen_rendering () =
  let v =
    Json.Obj
      [
        ( "k\"ey\\",
          Json.String
            "q\" b\\ n\n r\r t\t c\000\001\031 del\127 hi\128\255 /" );
        ( "list",
          Json.List
            [
              Json.Int (-42); Json.Bool false; Json.Null; Json.List [];
              Json.Obj [];
            ]
        );
        ("nested", Json.Obj [ ("x", Json.List [ Json.String "" ]) ]);
      ]
  in
  let expected =
    String.concat ""
      [
        {|{
  "k\"ey\\": "q\" b\\ n\n r\r t\t c\u0000\u0001\u001f del|};
        "\127 hi\128\255 /";
        {|",
  "list": [
    -42,
    false,
    null,
    [],
    {}
  ],
  "nested": {
    "x": [
      ""
    ]
  }
}
|};
      ]
  in
  check Alcotest.string "rendering" expected (Json.to_string v);
  check Alcotest.bool "parses back" true (Json.of_string expected = v)

(* Strings drawn to hit both of the emitter's paths: mostly plain
   characters (copied a run at a time), with quotes, backslashes,
   control characters and bytes from 0x7f up among them. *)
let gen_json_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (6, printable);
             (1, oneofl [ '"'; '\\' ]);
             (1, map Char.chr (int_bound 0x1f));
             (1, map Char.chr (int_range 0x7f 0xff));
           ])
      (int_bound 32))

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"string round trip" ~count:1000
    (QCheck.make ~print:String.escaped gen_json_string)
    (fun s ->
      let v = Json.Obj [ (s, Json.String s) ] in
      Json.of_string (Json.to_string v) = v)

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 ( 2,
                   map (fun i -> Json.Int i) (oneof [ int; small_signed_int ])
                 );
                 (3, map (fun s -> Json.String s) gen_json_string);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (int_bound 4) (self (n - 1))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4)
                        (pair gen_json_string (self (n - 1)))) );
               ]))

(* A frame as the wire might deliver it: a rendered value after one to
   three mutations (a bit flip, a truncation, a splice of the frame into
   itself, or a run of digits, a lone minus or a [\u] escape written in
   at some position). *)
let gen_frame =
  let open QCheck.Gen in
  let insert s at piece =
    let at = at mod (String.length s + 1) in
    String.sub s 0 at ^ piece ^ String.sub s at (String.length s - at)
  in
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
          ( 1,
            map3
              (fun a b len ->
                let a = a mod n and b = b mod n in
                let len = min len (n - b) in
                String.sub s 0 a ^ String.sub s b len ^ String.sub s a (n - a))
              nat nat (int_bound 64) );
          ( 2,
            map3 insert (return s) nat
              (oneof
                 [
                   string_size ~gen:numeral (int_range 15 40);
                   map (( ^ ) "-") (string_size ~gen:numeral (int_range 18 22));
                   return "-";
                   map (( ^ ) "\\u") (string_size ~gen:char (return 4));
                   return "\\b";
                   return "\\f";
                 ]) );
        ]
  in
  let* v = gen_json in
  let* rounds = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go rounds (Json.to_string v)

(* [Json.of_string] on hostile frames: it raises [Parse_error] and
   nothing else, and whatever it accepts re-encodes and re-parses to
   itself. *)
let prop_json_decoder =
  QCheck.Test.make ~name:"decoder: mutated frames" ~count:2000
    (QCheck.make ~print:String.escaped gen_frame)
    (fun frame ->
      match Json.of_string frame with
      | exception Json.Parse_error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | v -> (
        match Json.of_string (Json.to_string v) with
        | v' -> v' = v
        | exception e ->
          QCheck.Test.fail_reportf "re-parse raised %s" (Printexc.to_string e)))

(* A string literal as a client may write it: plain characters, the
   backspace and form-feed escapes [\b] and [\f], and [\u] escapes in
   either hex case, the [\u] escapes drawn to hit the surrogate ranges
   (paired, lone and reversed) as often as the rest. *)
type piece = Lit of char | Named of char | Esc of int

let gen_escaped =
  QCheck.Gen.(
    list_size (int_bound 8)
      (frequency
         [
           (2, map (fun c -> Lit c) (oneofl [ 'a'; 'Z'; '0'; ' '; '~' ]));
           (1, map (fun c -> Named c) (oneofl [ 'b'; 'f' ]));
           (2, map (fun u -> Esc u) (int_bound 0xFFFF));
           (1, map (fun u -> Esc u) (int_bound 0x7F));
           (2, map (fun u -> Esc u) (int_range 0xD800 0xDBFF));
           (2, map (fun u -> Esc u) (int_range 0xDC00 0xDFFF));
           ( 1,
             map (fun u -> Esc u)
               (oneofl [ 0x7F; 0x80; 0x7FF; 0x800; 0xFFFF; 0xD7FF; 0xE000 ]) );
         ]))

let render_escaped pieces =
  let b = Buffer.create 64 in
  Buffer.add_char b '"';
  List.iteri
    (fun i -> function
      | Lit c -> Buffer.add_char b c
      | Named c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | Esc u -> Printf.bprintf b (if i mod 2 = 0 then "\\u%04x" else "\\u%04X") u)
    pieces;
  Buffer.add_char b '"';
  Buffer.contents b

(* The reference: UTF-16 units to code points, each written out as
   UTF-8 by hand; [None] for a surrogate without its pair. *)
let reference_decode pieces =
  let b = Buffer.create 64 in
  let utf8 cp =
    let byte x = Buffer.add_char b (Char.chr x) in
    if cp < 0x80 then byte cp
    else if cp < 0x800 then (
      byte (0xC0 lor (cp lsr 6));
      byte (0x80 lor (cp land 0x3F)))
    else if cp < 0x10000 then (
      byte (0xE0 lor (cp lsr 12));
      byte (0x80 lor ((cp lsr 6) land 0x3F));
      byte (0x80 lor (cp land 0x3F)))
    else (
      byte (0xF0 lor (cp lsr 18));
      byte (0x80 lor ((cp lsr 12) land 0x3F));
      byte (0x80 lor ((cp lsr 6) land 0x3F));
      byte (0x80 lor (cp land 0x3F)))
  in
  let high u = u >= 0xD800 && u <= 0xDBFF and low u = u >= 0xDC00 && u <= 0xDFFF in
  let rec go = function
    | [] -> Some (Buffer.contents b)
    | Lit c :: rest -> Buffer.add_char b c; go rest
    | Named c :: rest ->
      Buffer.add_char b (if c = 'b' then '\b' else '\012');
      go rest
    | Esc h :: Esc l :: rest when high h && low l ->
      utf8 (0x10000 + ((h - 0xD800) * 0x400) + (l - 0xDC00));
      go rest
    | Esc u :: _ when high u || low u -> None
    | Esc u :: rest -> utf8 u; go rest
  in
  go pieces

let prop_json_unicode_escapes =
  QCheck.Test.make ~name:"\\u escapes decode to UTF-8" ~count:2000
    (QCheck.make ~print:render_escaped gen_escaped)
    (fun pieces ->
      match (Json.of_string (render_escaped pieces), reference_decode pieces) with
      | Json.String s, Some r -> s = r
      | exception Json.Parse_error _ -> reference_decode pieces = None
      | _ -> false)

(* RFC 8259 names two more control escapes than [\n], [\r] and [\t]:
   [\b] (backspace) and [\f] (form feed). A client may write them. *)
let test_json_backspace_formfeed () =
  List.iter
    (fun (src, want) ->
      check Alcotest.bool src true (Json.of_string src = Json.String want))
    [ ({|"a\bc"|}, "a\bc"); ({|"a\fc"|}, "a\012c"); ({|"\b\f"|}, "\b\012") ]

let test_json_snapshot_roundtrip () =
  with_registry (fun () ->
      let sc = Telemetry.scope "t" in
      Telemetry.add (Telemetry.counter sc "c") 7;
      Telemetry.observe (Telemetry.histogram sc "h") 100;
      Telemetry.record (Telemetry.span sc "s") 5;
      let j = Telemetry.to_json () in
      check Alcotest.bool "registry snapshot roundtrips" true
        (Json.of_string (Json.to_string j) = j))

(* Parsing recurses once per array/object, so nesting is bounded: a
   hostile 10 000-deep value fails fast with [Parse_error] instead of
   running for minutes or overflowing the stack, while a value exactly
   at the bound still round-trips. *)
let test_json_depth_bound () =
  let rejected what src =
    match Json.of_string src with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Json.Parse_error _ -> ()
  in
  let arrays n = String.make n '[' ^ String.make n ']' in
  rejected "10000-deep array" (arrays 10_000);
  rejected "array one past the bound" (arrays (Json.max_depth + 1));
  let objects n =
    String.concat "" (List.init n (fun _ -> "{\"k\":")) ^ "1"
    ^ String.make n '}'
  in
  rejected "10000-deep object" (objects 10_000);
  let rec deep n = if n = 1 then Json.List [] else Json.List [ deep (n - 1) ] in
  let v = deep Json.max_depth in
  check Alcotest.bool "a value at the bound round-trips" true
    (Json.of_string (Json.to_string v) = v);
  check Alcotest.bool "compact form at the bound parses" true
    (Json.of_string (arrays Json.max_depth) = v)

(* -------------------------------------------------------------- SHA-256 *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors. *)
  check Alcotest.string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check Alcotest.string "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  check Alcotest.string "one million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

(* The bytes 0, 1, ..., n-1 at every length where the padding changes
   shape: the last length that pads within one block (55), the first
   that needs a second (56), and either side of one and two full
   blocks. Expected values from Python's hashlib. [digest_prefix] of a
   longer string must agree, at every cut. *)
let test_sha256_boundaries () =
  let long = String.init 200 Char.chr in
  List.iter
    (fun (n, hex) ->
      let name = string_of_int n ^ " bytes" in
      check Alcotest.string name hex (Sha256.digest (String.sub long 0 n));
      check Alcotest.string (name ^ ", prefix") hex (Sha256.digest_prefix long n))
    [
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
    ]

(* --------------------------------------------------------- determinism *)

let assemble src =
  match Bor_isa.Asm.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Bor_isa.Asm.pp_error e

let brr_loop =
  {|
main:   li   s1, 4000
loop:   brr  1/2, hit
        j    next
hit:    addi t2, t2, 1
next:   addi s1, s1, -1
        bne  s1, zero, loop
        halt
      |}

let snapshot_of_run program =
  Telemetry.clear ();
  let t = Bor_uarch.Pipeline.create program in
  (match Bor_uarch.Pipeline.run t with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Telemetry.counters ()

let test_same_seed_runs_identical () =
  (* The property @bench-check is built on: the full counter snapshot is
     a pure function of the simulated work. *)
  with_registry (fun () ->
      let p = assemble brr_loop in
      let a = snapshot_of_run p in
      let b = snapshot_of_run p in
      check Alcotest.bool "non-trivial snapshot" true (List.length a > 10);
      check Alcotest.(list (pair string int)) "identical counters" a b)

let () =
  Alcotest.run "bor_telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "same name aggregates" `Quick
            test_same_name_aggregates;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "reset keeps registrations" `Quick
            test_reset_keeps_registrations;
          Alcotest.test_case "pp groups scopes" `Quick test_pp_groups_scopes;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "span min/max" `Quick test_span_min_max;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "frozen rendering" `Quick
            test_json_frozen_rendering;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 30 |])
            prop_json_string_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 31 |])
            prop_json_decoder;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 32 |])
            prop_json_unicode_escapes;
          Alcotest.test_case "backspace and form-feed escapes" `Quick
            test_json_backspace_formfeed;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_json_snapshot_roundtrip;
          Alcotest.test_case "nesting depth bound" `Quick
            test_json_depth_bound;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "block and padding boundaries" `Quick
            test_sha256_boundaries;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed runs identical" `Quick
            test_same_seed_runs_identical;
        ] );
    ]
