(* FIPS 180-4 SHA-256, on the host's native ints (the 32-bit words are
   masked where a sum could carry past bit 31). Self-contained so the
   bench digest check needs no external dependency. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask32 = 0xFFFFFFFF

(* A 32-bit word with a copy of itself above it: [(dup x lsr n) land
   mask32] is [x] rotated right by [n], for every [n] up to 31 (the
   copy loses only bit 31 of [x] off the top of a 63-bit int). *)
let[@inline] dup x = x lor (x lsl 32)

(* One round, in the in-place form: the caller adds [t1] into [d] and
   makes [t1 + t2] the new [h], then renames the eight words instead of
   moving them. The sums are left unmasked: only their low 32 bits are
   right, and the caller masks once, when it stores the word. *)
let[@inline] t1 w e f g h t =
  let e2 = dup e in
  h
  + ((e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25))
  + (g lxor (e land (f lxor g)))
  + Array.unsafe_get k t + Array.unsafe_get w t

let[@inline] t2 a b c =
  let a2 = dup a in
  ((a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22))
  + ((a land b) lor (c land (a lor b)))

(* Compress the first [blocks] 64-byte blocks of [s] into [h], with [w]
   as the message schedule. The caller checks that the blocks lie
   inside [s]; every load here is unchecked. *)
let compress h w s blocks =
  for blk = 0 to blocks - 1 do
    let base = blk * 64 in
    for t = 0 to 15 do
      let o = base + (t * 4) in
      Array.unsafe_set w t
        ((Char.code (String.unsafe_get s o) lsl 24)
        lor (Char.code (String.unsafe_get s (o + 1)) lsl 16)
        lor (Char.code (String.unsafe_get s (o + 2)) lsl 8)
        lor Char.code (String.unsafe_get s (o + 3)))
    done;
    for t = 16 to 63 do
      let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
      let x2 = dup x and y2 = dup y in
      let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
      let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
      Array.unsafe_set w t
        ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
        land mask32)
    done;
    let ra = ref h.(0) and rb = ref h.(1) and rc = ref h.(2) in
    let rd = ref h.(3) and re = ref h.(4) and rf = ref h.(5) in
    let rg = ref h.(6) and rh = ref h.(7) in
    (* Eight rounds per pass, so the words are renamed back in place. *)
    for i = 0 to 7 do
      let t = i * 8 in
      let a = !ra and b = !rb and c = !rc and d = !rd in
      let e = !re and f = !rf and g = !rg and h = !rh in
      let x = t1 w e f g h t in
      let d = (d + x) land mask32 and h = (x + t2 a b c) land mask32 in
      let x = t1 w d e f g (t + 1) in
      let c = (c + x) land mask32 and g = (x + t2 h a b) land mask32 in
      let x = t1 w c d e f (t + 2) in
      let b = (b + x) land mask32 and f = (x + t2 g h a) land mask32 in
      let x = t1 w b c d e (t + 3) in
      let a = (a + x) land mask32 and e = (x + t2 f g h) land mask32 in
      let x = t1 w a b c d (t + 4) in
      let h = (h + x) land mask32 and d = (x + t2 e f g) land mask32 in
      let x = t1 w h a b c (t + 5) in
      let g = (g + x) land mask32 and c = (x + t2 d e f) land mask32 in
      let x = t1 w g h a b (t + 6) in
      let f = (f + x) land mask32 and b = (x + t2 c d e) land mask32 in
      let x = t1 w f g h a (t + 7) in
      let e = (e + x) land mask32 and a = (x + t2 b c d) land mask32 in
      ra := a; rb := b; rc := c; rd := d;
      re := e; rf := f; rg := g; rh := h
    done;
    h.(0) <- (h.(0) + !ra) land mask32;
    h.(1) <- (h.(1) + !rb) land mask32;
    h.(2) <- (h.(2) + !rc) land mask32;
    h.(3) <- (h.(3) + !rd) land mask32;
    h.(4) <- (h.(4) + !re) land mask32;
    h.(5) <- (h.(5) + !rf) land mask32;
    h.(6) <- (h.(6) + !rg) land mask32;
    h.(7) <- (h.(7) + !rh) land mask32
  done

let hex_digits = "0123456789abcdef"

let digest_prefix msg len =
  if len < 0 || len > String.length msg then invalid_arg "Sha256.digest_prefix";
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
       0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
  in
  let w = Array.make 64 0 in
  let full = len / 64 in
  compress h w msg full;
  (* Padding, in one or two final blocks: the tail, 0x80, zeros, and
     the 64-bit big-endian bit length. *)
  let rest = len - (full * 64) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string msg (full * 64) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  compress h w (Bytes.unsafe_to_string tail) (tail_len / 64);
  let out = Bytes.create 64 in
  Array.iteri
    (fun i x ->
      for j = 0 to 7 do
        Bytes.unsafe_set out ((i * 8) + j)
          (String.unsafe_get hex_digits ((x lsr (28 - (4 * j))) land 15))
      done)
    h;
  Bytes.unsafe_to_string out

let digest msg = digest_prefix msg (String.length msg)
