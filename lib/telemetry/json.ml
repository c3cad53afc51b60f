type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> raise (Parse_error (Printf.sprintf "expected %c, got %c" ch x))
  | None -> raise (Parse_error (Printf.sprintf "expected %c, got eof" ch))

let literal c word v =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else raise (Parse_error ("bad literal at " ^ string_of_int c.pos))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Parse_error "unterminated string")
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then
          raise (Parse_error "bad \\u escape");
        let hex = String.sub c.src c.pos 4 in
        c.pos <- c.pos + 4;
        let code = int_of_string ("0x" ^ hex) in
        (* Only the control-character range we ever emit. *)
        Buffer.add_char buf (Char.chr (code land 0xFF));
        go ()
      | _ -> raise (Parse_error "bad escape"))
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_int c =
  let start = c.pos in
  (match peek c with Some '-' -> advance c | _ -> ());
  let rec digits () =
    match peek c with
    | Some '0' .. '9' ->
      advance c;
      digits ()
    | _ -> ()
  in
  digits ();
  if c.pos = start then raise (Parse_error "expected a number");
  int_of_string (String.sub c.src start (c.pos - start))

(* Each '[' or '{' costs one stack frame, so the depth bound keeps a
   hostile input (a wire frame can be hundreds of MiB) from exhausting
   the stack or burning minutes before it fails. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | Some ('[' | '{') when depth >= max_depth ->
    raise (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth))
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value c (depth + 1) :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          go ()
        | Some ']' -> advance c
        | _ -> raise (Parse_error "expected , or ] in array")
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
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
        | Some ',' ->
          advance c;
          go ()
        | Some '}' -> advance c
        | _ -> raise (Parse_error "expected , or } in object")
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> Int (parse_int c)
  | Some ch -> raise (Parse_error (Printf.sprintf "unexpected %c" ch))
  | None -> raise (Parse_error "unexpected eof")

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
