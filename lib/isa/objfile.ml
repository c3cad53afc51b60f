let magic = "BOR1"

let u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let save (p : Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  u32 buf p.text_base;
  u32 buf p.data_base;
  u32 buf p.entry;
  u32 buf (Array.length p.text);
  Array.iter (fun i -> u32 buf (Encoding.encode_exn i)) p.text;
  u32 buf (Bytes.length p.data);
  Buffer.add_bytes buf p.data;
  u32 buf (List.length p.symbols);
  List.iter
    (fun (name, addr) ->
      u32 buf (String.length name);
      Buffer.add_string buf name;
      u32 buf addr)
    p.symbols;
  u32 buf (List.length p.sites);
  List.iter
    (fun (addr, id) ->
      u32 buf addr;
      u32 buf id)
    p.sites;
  Buffer.contents buf

exception Bad of string

let load s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then
      raise (Bad (Printf.sprintf "truncated image reading %s" what))
  in
  let read_u32 what =
    need 4 what;
    let b i = Char.code s.[!pos + i] in
    let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    pos := !pos + 4;
    v
  in
  let read_string n what =
    need n what;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  (* A count whose entries (at least [bytes] each) cannot fit in what
     is left of the image is refused before anything is allocated for
     it, so a short image cannot claim a huge table. *)
  let read_count bytes what =
    let n = read_u32 what in
    if n > (String.length s - !pos) / bytes then
      raise (Bad (Printf.sprintf "%s %d exceeds the image" what n));
    n
  in
  try
    if read_string 4 "magic" <> magic then raise (Bad "bad magic");
    let text_base = read_u32 "text base" in
    let data_base = read_u32 "data base" in
    let entry = read_u32 "entry" in
    let n_text = read_count 4 "text size" in
    let text =
      Array.init n_text (fun i ->
          let word = read_u32 "instruction" in
          match Encoding.decode word with
          | Ok instr when Encoding.encode instr = Ok word -> instr
          | Ok _ ->
            raise (Bad (Printf.sprintf "word %d: non-canonical encoding" i))
          | Error e -> raise (Bad (Printf.sprintf "word %d: %s" i e)))
    in
    let data_len = read_u32 "data size" in
    let data = Bytes.of_string (read_string data_len "data") in
    let n_sym = read_count 8 "symbol count" in
    let symbols =
      List.init n_sym (fun _ ->
          let len = read_u32 "symbol name length" in
          let name = read_string len "symbol name" in
          (name, read_u32 "symbol address"))
    in
    let n_sites = read_count 8 "site count" in
    let sites =
      List.init n_sites (fun _ ->
          let addr = read_u32 "site address" in
          (addr, read_u32 "site id"))
    in
    if !pos <> String.length s then raise (Bad "trailing bytes");
    Ok
      (Program.make ~text_base ~data_base ~entry ~symbols ~sites ~data text)
  with Bad m -> Error m

let is_object_file s =
  String.length s >= 4 && String.sub s 0 4 = magic
