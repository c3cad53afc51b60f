module Json = Bor_telemetry.Json

let max_frame = 256 * 1024 * 1024

exception Protocol_error of string

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  let header = Bytes.create 8 in
  Bytes.set_int64_le header 0 (Int64.of_int len);
  write_all fd (Bytes.unsafe_to_string header) 0 8;
  write_all fd payload 0 len

(* The buffer grows as bytes arrive instead of taking a header's word
   for the frame's length: a peer claiming [max_frame] bytes and
   sending ten costs one [first_alloc] buffer, not the claim. A frame
   that fits [first_alloc] (all normal traffic) is read into one
   allocation with no copy. [None] only when EOF lands exactly between
   frames; inside a frame it is a torn conversation and raises. *)
let first_alloc = 1 lsl 20

let read_exact fd n ~at_boundary =
  let rec loop buf pos =
    if pos = n then Some (Bytes.unsafe_to_string buf)
    else
      let buf =
        if pos < Bytes.length buf then buf
        else begin
          let grown = Bytes.create (min n (2 * pos)) in
          Bytes.blit buf 0 grown 0 pos;
          grown
        end
      in
      match Unix.read fd buf pos (Bytes.length buf - pos) with
      | 0 ->
          if pos = 0 && at_boundary then None
          else raise (Protocol_error "unexpected EOF mid-frame")
      | got -> loop buf (pos + got)
  in
  loop (Bytes.create (min n first_alloc)) 0

let read_frame fd =
  match read_exact fd 8 ~at_boundary:true with
  | None -> None
  | Some header ->
      let len64 = String.get_int64_le header 0 in
      if Int64.compare len64 0L < 0 || Int64.compare len64 (Int64.of_int max_frame) > 0
      then
        raise
          (Protocol_error (Printf.sprintf "bad frame length %Ld" len64));
      read_exact fd (Int64.to_int len64) ~at_boundary:false

let write_json fd j = write_frame fd (Json.to_string j)

let read_json fd =
  match read_frame fd with
  | None -> None
  | Some payload -> (
      match Json.of_string payload with
      | j -> Some j
      | exception Json.Parse_error m ->
          raise (Protocol_error ("frame is not valid JSON: " ^ m)))

let hex_digits = "0123456789abcdef"

let to_hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (b lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1)
      (String.unsafe_get hex_digits (b land 15))
  done;
  Bytes.unsafe_to_string out

(* Each character's nibble value, or 0xff for a character that is not a
   hex digit (either case). *)
let nibbles =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - Char.code '0')
      | 'a' .. 'f' -> Char.chr (i - Char.code 'a' + 10)
      | 'A' .. 'F' -> Char.chr (i - Char.code 'A' + 10)
      | _ -> '\xff')

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then Error "hex string has odd length"
  else
    let nib i =
      Char.code (String.unsafe_get nibbles (Char.code (String.unsafe_get s i)))
    in
    let out = Bytes.create (len / 2) in
    let rec go i =
      if i = len / 2 then Ok (Bytes.unsafe_to_string out)
      else
        let hi = nib (2 * i) and lo = nib ((2 * i) + 1) in
        if hi lor lo > 15 then Error "hex string has non-hex characters"
        else begin
          Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0
