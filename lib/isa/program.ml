type t = {
  text : Instr.t array;
  text_base : int;
  data : Bytes.t;
  data_base : int;
  entry : int;
  symbols : (string * int) list;
  sites : (int * int) list;
}

let default_text_base = 0x1000
let default_data_base = 0x100000

let make ?(text_base = default_text_base) ?(data_base = default_data_base)
    ?entry ?(symbols = []) ?(sites = []) ?(data = Bytes.create 0) text =
  let entry = match entry with Some e -> e | None -> text_base in
  { text; text_base; data; data_base; entry; symbols; sites }

let instr_at t addr =
  let off = addr - t.text_base in
  if off < 0 || off land 3 <> 0 then None
  else
    let idx = off lsr 2 in
    if idx >= Array.length t.text then None else Some t.text.(idx)

let find_symbol t name = List.assoc_opt name t.symbols
let site_at t addr = List.assoc_opt addr t.sites
let instr_count t = Array.length t.text

let pp_listing ppf t =
  let by_addr = List.map (fun (n, a) -> (a, n)) t.symbols in
  Array.iteri
    (fun i ins ->
      let addr = t.text_base + (4 * i) in
      List.iter
        (fun (a, n) -> if a = addr then Format.fprintf ppf "%s:@." n)
        by_addr;
      let site =
        match site_at t addr with
        | Some id -> Printf.sprintf "   ; site %d" id
        | None -> ""
      in
      Format.fprintf ppf "  0x%05x  %a%s@." addr Instr.pp ins site)
    t.text
