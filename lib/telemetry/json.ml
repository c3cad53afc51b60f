type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

let hex_digits = "0123456789abcdef"

(* A string goes out in runs: each run of characters that need no
   escape is one [add_substring], so a string with nothing to escape
   (a hex image, a key) is copied once. *)
let add_escaped buf s =
  let flush start i =
    if i > start then Buffer.add_substring buf s start (i - start)
  in
  let rec go start i =
    if i = String.length s then flush start i
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        flush start i;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]);
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let pad buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

let rec write buf indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad buf (indent + 2);
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    pad buf indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad buf (indent + 2);
        add_quoted buf k;
        Buffer.add_string buf ": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    pad buf indent;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let at_end c = c.pos >= String.length c.src

(* The character under the cursor, or '\000' at the end of the input:
   a NUL is never valid outside a string literal, so the scanner needs
   no option per character. *)
let peek c = if at_end c then '\000' else String.unsafe_get c.src c.pos

let advance c = c.pos <- c.pos + 1

let got c = if at_end c then "eof" else String.make 1 (peek c)

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  if peek c = ch then advance c
  else raise (Parse_error (Printf.sprintf "expected %c, got %s" ch (got c)))

let literal c word v =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else raise (Parse_error ("bad literal at " ^ string_of_int c.pos))

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> raise (Parse_error "bad \\u escape")

let hex4 s i =
  if i + 4 > String.length s then raise (Parse_error "bad \\u escape");
  (hex_digit s.[i] lsl 12)
  lor (hex_digit s.[i + 1] lsl 8)
  lor (hex_digit s.[i + 2] lsl 4)
  lor hex_digit s.[i + 3]

(* A literal without a backslash is cut out with one [String.sub];
   only one with escapes is rebuilt, a run at a time. *)
let parse_string c =
  expect c '"';
  let s = c.src and n = String.length c.src in
  let rec scan i =
    if i >= n then raise (Parse_error "unterminated string")
    else match String.unsafe_get s i with '"' | '\\' -> i | _ -> scan (i + 1)
  in
  let start = c.pos in
  let stop = scan start in
  if s.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec go start stop =
      Buffer.add_substring buf s start (stop - start);
      if s.[stop] = '"' then c.pos <- stop + 1
      else begin
        if stop + 1 >= n then raise (Parse_error "bad escape");
        let next =
          match s.[stop + 1] with
          | 'n' -> Buffer.add_char buf '\n'; stop + 2
          | 'r' -> Buffer.add_char buf '\r'; stop + 2
          | 't' -> Buffer.add_char buf '\t'; stop + 2
          | 'b' -> Buffer.add_char buf '\b'; stop + 2
          | 'f' -> Buffer.add_char buf '\012'; stop + 2
          | ('"' | '\\' | '/') as ch -> Buffer.add_char buf ch; stop + 2
          | 'u' ->
            (* A code point, written out as UTF-8; above U+FFFF it is a
               high surrogate escape followed by a low one. *)
            let u = hex4 s (stop + 2) in
            let code, next =
              if
                u land 0xFC00 = 0xD800
                && stop + 7 < n && s.[stop + 6] = '\\' && s.[stop + 7] = 'u'
              then begin
                let lo = hex4 s (stop + 8) in
                if lo land 0xFC00 <> 0xDC00 then
                  raise (Parse_error "bad surrogate pair");
                (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00), stop + 12)
              end
              else (u, stop + 6)
            in
            (* What is left invalid is a surrogate without its pair. *)
            if not (Uchar.is_valid code) then
              raise (Parse_error "lone surrogate in \\u escape");
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            next
          | _ -> raise (Parse_error "bad escape")
        in
        go next (scan next)
      end
    in
    go start stop;
    Buffer.contents buf
  end

let parse_int c =
  let start = c.pos in
  if peek c = '-' then advance c;
  let first = c.pos in
  while match peek c with '0' .. '9' -> true | _ -> false do
    advance c
  done;
  if c.pos = first then raise (Parse_error "expected a number");
  match int_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some i -> i
  | None -> raise (Parse_error "integer out of range")

(* Each '[' or '{' costs one stack frame, so the depth bound keeps a
   hostile input (a wire frame can be hundreds of MiB) from exhausting
   the stack or burning minutes before it fails. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | ('[' | '{') when depth >= max_depth ->
    raise (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth))
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' ->
    advance c;
    skip_ws c;
    if peek c = ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c (depth + 1) :: !items;
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          go ()
        | ']' -> advance c
        | _ -> raise (Parse_error "expected , or ] in array")
      in
      go ();
      List (List.rev !items)
    end
  | '{' ->
    advance c;
    skip_ws c;
    if peek c = '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | ',' ->
          advance c;
          go ()
        | '}' -> advance c
        | _ -> raise (Parse_error "expected , or } in object")
      in
      go ();
      Obj (List.rev !fields)
    end
  | '-' | '0' .. '9' -> Int (parse_int c)
  | _ -> raise (Parse_error ("unexpected " ^ got c))

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then
    raise (Parse_error "trailing garbage after JSON value");
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
