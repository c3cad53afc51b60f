module Machine = Bor_sim.Machine
module Memory = Bor_sim.Memory
module Pipeline = Bor_uarch.Pipeline
module Block = Bor_uarch.Block
module Region = Bor_uarch.Region
module Sha256 = Bor_telemetry.Sha256

type t = {
  ck_program : string;
  ck_arch : Machine.arch;
  ck_mem : Memory.snapshot;
  ck_warm : (string * Region.value) list;
}

let version = 1
let magic = "BORCKPT\n"

let program_digest prog = Sha256.digest (Bor_isa.Objfile.save prog)

let capture ~program_digest p =
  let w = Pipeline.warm p in
  {
    ck_program = program_digest;
    ck_arch = Machine.export_arch w.oracle;
    ck_mem = Memory.snapshot (Machine.memory w.oracle);
    ck_warm = Region.capture Block.regions w;
  }

let restore ck ~program_digest p =
  if ck.ck_program <> program_digest then
    Error
      (Printf.sprintf
         "checkpoint is for a different program (image digest %s, expected %s)"
         (String.sub ck.ck_program 0 (min 12 (String.length ck.ck_program)))
         (String.sub program_digest 0 12))
  else
    try
      let w = Pipeline.warm p in
      Machine.import_arch w.oracle ck.ck_arch;
      Memory.restore (Machine.memory w.oracle) ck.ck_mem;
      Region.restore Block.regions w ck.ck_warm;
      Pipeline.resume_fetch p;
      Ok ()
    with Invalid_argument m ->
      Error ("checkpoint does not fit this pipeline configuration: " ^ m)

(* ------------------------------------------------------- serialization *)

(* Every integer is a signed 64-bit little-endian word: the format
   favours a dead-simple reader over compactness (a checkpoint is
   dominated by the predictor tables either way), and 64-bit words
   round-trip OCaml ints exactly. *)

(* The encoder runs twice over one statement of the format: on a
   sizing sink (empty [buf]) it only advances [pos], which sizes the
   output exactly; on the second it writes into that one buffer. So
   encoding allocates its output once, with no growth and no copy. *)
type sink = { buf : Bytes.t; mutable pos : int }

let sizing s = Bytes.length s.buf = 0

let w_int s v =
  if not (sizing s) then Bytes.set_int64_le s.buf s.pos (Int64.of_int v);
  s.pos <- s.pos + 8

let w_array s a =
  w_int s (Array.length a);
  if sizing s then s.pos <- s.pos + (8 * Array.length a)
  else Array.iter (w_int s) a

(* Every table is one little-endian word per entry on disk, whatever
   its width in memory: a counter byte, or a native-endian word. *)
let w_table s kind b =
  let n = Bytes.length b / Region.width kind in
  w_int s n;
  if sizing s then s.pos <- s.pos + (8 * n)
  else
    for i = 0 to n - 1 do
      let v =
        match kind with
        | Region.Counters -> Int64.of_int (Char.code (Bytes.get b i))
        | Words -> Bytes.get_int64_ne b (8 * i)
      in
      Bytes.set_int64_le s.buf s.pos v;
      s.pos <- s.pos + 8
    done

let w_raw s str =
  if not (sizing s) then
    Bytes.blit_string str 0 s.buf s.pos (String.length str);
  s.pos <- s.pos + String.length str

let w_string s str =
  w_int s (String.length str);
  w_raw s str

let encode b ck =
  w_raw b magic;
  w_int b version;
  w_string b ck.ck_program;
  w_int b ck.ck_arch.Machine.a_pc;
  w_int b (Bool.to_int ck.ck_arch.Machine.a_halted);
  w_array b ck.ck_arch.Machine.a_regs;
  List.iter
    (function
      | _, Region.Int v -> w_int b v
      | _, Data (kind, t) -> w_table b kind t)
    ck.ck_warm;
  w_int b (Memory.snapshot_size ck.ck_mem);
  let pages = Memory.snapshot_pages ck.ck_mem in
  w_int b (Array.length pages);
  Array.iter
    (fun (idx, bytes) ->
      w_int b idx;
      w_string b (Bytes.unsafe_to_string bytes))
    pages

(* The payload, then its SHA-256 stamp hashed where it lies. *)
let to_string ck =
  let size = { buf = Bytes.empty; pos = 0 } in
  encode size ck;
  let out = { buf = Bytes.create (size.pos + 64); pos = 0 } in
  encode out ck;
  let stamp = Sha256.digest_prefix (Bytes.unsafe_to_string out.buf) size.pos in
  Bytes.blit_string stamp 0 out.buf size.pos 64;
  Bytes.unsafe_to_string out.buf

exception Malformed
exception Bad_counter of int

let of_string s =
  let len = String.length s in
  let mlen = String.length magic in
  if len < mlen || String.sub s 0 mlen <> magic then
    Error "not a checkpoint (bad magic — is this a BORCKPT file?)"
  else if len < mlen + 8 + 64 then Error "corrupted checkpoint (truncated)"
  else begin
    let stamp = String.sub s (len - 64) 64 in
    let pos = ref mlen in
    (* A word outside OCaml's 63-bit ints would not re-encode to
       itself, so it is malformed like any other. *)
    let r_int () =
      if !pos + 8 > len - 64 then raise Malformed;
      let w = String.get_int64_le s !pos in
      let v = Int64.to_int w in
      if not (Int64.equal (Int64.of_int v) w) then raise Malformed;
      pos := !pos + 8;
      v
    in
    let r_string () =
      let n = r_int () in
      if n < 0 || !pos + n > len - 64 then raise Malformed;
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    in
    (* A table length whose entries, at least [entry] bytes each, cannot
       fit in the bytes left is refused before anything is allocated
       for it: whatever a header claims, decoding allocates in
       proportion to the input. *)
    let r_len entry =
      let n = r_int () in
      if n < 0 || n > (len - 64 - !pos) / entry then raise Malformed;
      n
    in
    let r_array () = Array.init (r_len 8) (fun _ -> r_int ()) in
    let r_table kind =
      let n = r_len 8 in
      match kind with
      | Region.Counters ->
        Bytes.init n (fun _ ->
            let v = r_int () in
            if v < 0 || v > 3 then raise (Bad_counter v);
            Char.unsafe_chr v)
      | Words ->
        let b = Bytes.create (8 * n) in
        for i = 0 to n - 1 do
          Bytes.set_int64_ne b (8 * i) (Int64.of_int (r_int ()))
        done;
        b
    in
    try
      if Sha256.digest_prefix s (len - 64) <> stamp then
        Error "corrupted checkpoint (SHA-256 stamp mismatch)"
      else begin
        let v = r_int () in
        if v <> version then
          Error
            (Printf.sprintf
               "checkpoint format version %d not supported (this build reads \
                version %d)"
               v version)
        else begin
        let ck_program = r_string () in
        let a_pc = r_int () in
        let a_halted =
          match r_int () with 0 -> false | 1 -> true | _ -> raise Malformed
        in
        let a_regs = r_array () in
        let ck_warm =
          List.map
            (function
              | Region.Scalar (n, _, _) -> (n, Region.Int (r_int ()))
              | Table (n, kind, _) -> (n, Data (kind, r_table kind)))
            Block.regions
        in
        (* The size sets the snapshot's dirty bitmap (one bit per
           page), so it is bounded before that is allocated: memory
           past 2^31 bytes is beyond what a 32-bit machine addresses. *)
        let mem_size = r_int () in
        if mem_size < 1 || mem_size > 1 lsl 31 then raise Malformed;
        let pages =
          (* index and length words, at least *)
          Array.init (r_len 16) (fun _ ->
              let idx = r_int () in
              (idx, Bytes.of_string (r_string ())))
        in
        if !pos <> len - 64 then raise Malformed;
        Ok
          {
            ck_program;
            ck_arch = { Machine.a_pc; a_regs; a_halted };
            ck_mem = Memory.snapshot_of_pages ~size:mem_size pages;
            ck_warm;
          }
        end
      end
    with
    | Malformed | Invalid_argument _ ->
      Error "corrupted checkpoint (truncated or malformed payload)"
    | Bad_counter v ->
      Error
        (Printf.sprintf
           "corrupted checkpoint (predictor counter %d outside 0..3)" v)
  end

let save_file path ck =
  try
    let oc = Out_channel.open_bin path in
    Fun.protect
      ~finally:(fun () -> Out_channel.close_noerr oc)
      (fun () ->
        Out_channel.output_string oc (to_string ck);
        (* The raising close: its flush reports a full disk. *)
        Out_channel.close oc);
    Ok ()
  with Sys_error m -> Error m

let load_file path =
  match
    try
      let ic = In_channel.open_bin path in
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () -> Ok (In_channel.input_all ic))
    with Sys_error m -> Error m
  with
  | Error m -> Error m
  | Ok data -> of_string data
