(* Flat byte-addressable memory with dirty-page tracking.

   The backing store is one Bytes.t; alongside it lives a bitmap with
   one bit per [page_bytes] page, set on every write (and over the
   range of [load_segment]). The bitmap is what makes {!snapshot}
   cheap: a checkpoint copies only the pages that were ever written —
   a few tens of kilobytes for typical workloads instead of the whole
   8 MiB image — cheap enough to take one per sampled window. *)

type t = {
  bytes : Bytes.t;
  dirty : Bytes.t;  (** bitmap, bit [p] set = page [p] was written *)
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

let page_bytes = 4096
let page_shift = 12
let pages_of size = (size + page_bytes - 1) / page_bytes

let create ~size =
  if size <= 0 then invalid_arg "Memory.create";
  {
    bytes = Bytes.make size '\000';
    dirty = Bytes.make ((pages_of size + 7) / 8) '\000';
  }

let size t = Bytes.length t.bytes

(* An aligned word never straddles a 4 KiB page, so one mark per write
   suffices. *)
let[@inline] mark_page t addr =
  let p = addr lsr page_shift in
  let i = p lsr 3 in
  Bytes.unsafe_set t.dirty i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.dirty i) lor (1 lsl (p land 7))))

let[@inline] page_dirty dirty p =
  Char.code (Bytes.unsafe_get dirty (p lsr 3)) land (1 lsl (p land 7)) <> 0

let rec lowest_bit b n = if b land 1 <> 0 then n else lowest_bit (b lsr 1) (n + 1)

(* The dirty-page walker: the first page at or after [p] whose bit is
   set in [dirty], or a page past the end when none is. It reads the
   bitmap a byte at a time and skips zero bytes, so walking a mostly
   clean 8 MiB memory costs 256 byte loads rather than 2048 bit tests.
   Bits past the last page are never set. *)
let rec next_dirty dirty p =
  let i = p lsr 3 in
  if i >= Bytes.length dirty then Bytes.length dirty lsl 3
  else
    let b = Char.code (Bytes.unsafe_get dirty i) lsr (p land 7) in
    if b = 0 then next_dirty dirty ((i + 1) lsl 3) else lowest_bit b p

let check_segment ~size ~base len =
  if base < 0 || base + len > size then
    Error
      (Printf.sprintf "data segment [0x%x, 0x%x) does not fit memory" base
         (base + len))
  else Ok ()

let load_segment t ~base seg =
  let len = Bytes.length seg in
  Result.iter_error
    (fun m -> raise (Fault m))
    (check_segment ~size:(Bytes.length t.bytes) ~base len);
  Bytes.blit seg 0 t.bytes base len;
  (* Mark the whole range so snapshots are self-contained over a blank
     image: a restore target need not have the segment pre-loaded. *)
  if len > 0 then
    for p = base lsr page_shift to (base + len - 1) lsr page_shift do
      mark_page t (p lsl page_shift)
    done

let check t addr len align what =
  if addr < 0 || addr + len > Bytes.length t.bytes then
    fault "%s out of bounds at 0x%x" what addr;
  if addr land (align - 1) <> 0 then fault "misaligned %s at 0x%x" what addr

(* Words are composed/decomposed from 16-bit halves: the 32-bit
   accessors ([Bytes.get_int32_le]) box an [Int32] on every call,
   while the 16-bit primitives traffic in immediate ints, and
   loads/stores are the memory hot path of both simulators. [check]
   has already validated [addr..addr+3], so the unchecked variants are
   safe; they read native byte order, hence the (statically decided)
   swap on big-endian hosts. *)

external unsafe_get_uint16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set_uint16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] swap16 v = ((v land 0xFF) lsl 8) lor ((v lsr 8) land 0xFF)

let[@inline] get16_le b i =
  let v = unsafe_get_uint16 b i in
  if Sys.big_endian then swap16 v else v

let[@inline] set16_le b i v =
  unsafe_set_uint16 b i (if Sys.big_endian then swap16 v else v)

let read_word t addr =
  check t addr 4 4 "word read";
  Bor_util.Bits.wrap32
    (get16_le t.bytes addr lor (get16_le t.bytes (addr + 2) lsl 16))

let write_word t addr v =
  check t addr 4 4 "word write";
  mark_page t addr;
  set16_le t.bytes addr v;
  set16_le t.bytes (addr + 2) (v lsr 16)

let read_byte t addr =
  check t addr 1 1 "byte read";
  Char.code (Bytes.get t.bytes addr)

let write_byte t addr v =
  check t addr 1 1 "byte write";
  mark_page t addr;
  Bytes.set t.bytes addr (Char.chr (v land 0xFF))

(* ---------------------------------------------------------- snapshots *)

type snapshot = {
  s_size : int;
  s_dirty : Bytes.t;  (** the source's dirty bitmap at capture time *)
  s_pages : (int * Bytes.t) array;  (** (page index, page contents) *)
}

let page_len t p = min page_bytes (Bytes.length t.bytes - (p * page_bytes))

let snapshot t =
  let npages = pages_of (Bytes.length t.bytes) in
  let count = ref 0 in
  let p = ref (next_dirty t.dirty 0) in
  while !p < npages do
    incr count;
    p := next_dirty t.dirty (!p + 1)
  done;
  let pages = Array.make !count (0, Bytes.empty) in
  let p = ref (next_dirty t.dirty 0) in
  for i = 0 to !count - 1 do
    pages.(i) <- (!p, Bytes.sub t.bytes (!p * page_bytes) (page_len t !p));
    p := next_dirty t.dirty (!p + 1)
  done;
  { s_size = Bytes.length t.bytes; s_dirty = Bytes.copy t.dirty; s_pages = pages }

(* Zero every page dirty in [t] but not in [keep] (a bitmap of the same
   length; none keeps nothing). Pages clean in [t] were never written
   and are already zero. *)
let zero_dirty_pages ?keep t =
  let npages = pages_of (Bytes.length t.bytes) in
  let p = ref (next_dirty t.dirty 0) in
  while !p < npages do
    let kept = match keep with Some k -> page_dirty k !p | None -> false in
    if not kept then Bytes.fill t.bytes (!p * page_bytes) (page_len t !p) '\000';
    p := next_dirty t.dirty (!p + 1)
  done

let clear t =
  zero_dirty_pages t;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let restore t s =
  if Bytes.length t.bytes <> s.s_size then
    invalid_arg "Memory.restore: size mismatch";
  (* Pages the target wrote but the snapshot never did must go back to
     zero; the snapshot's own pages are overwritten below. *)
  zero_dirty_pages t ~keep:s.s_dirty;
  Array.iter
    (fun (p, bytes) ->
      Bytes.blit bytes 0 t.bytes (p * page_bytes) (Bytes.length bytes))
    s.s_pages;
  Bytes.blit s.s_dirty 0 t.dirty 0 (Bytes.length s.s_dirty)

let snapshot_size s = s.s_size
let snapshot_pages s = s.s_pages

let snapshot_of_pages ~size pages =
  let npages = pages_of size in
  let dirty = Bytes.make ((npages + 7) / 8) '\000' in
  Array.iter
    (fun (p, bytes) ->
      if p < 0 || p >= npages then
        invalid_arg "Memory.snapshot_of_pages: page out of range";
      let base = p * page_bytes in
      if Bytes.length bytes <> min page_bytes (size - base) then
        invalid_arg "Memory.snapshot_of_pages: short page";
      let i = p lsr 3 in
      Bytes.set dirty i
        (Char.chr (Char.code (Bytes.get dirty i) lor (1 lsl (p land 7)))))
    pages;
  { s_size = size; s_dirty = dirty; s_pages = pages }
