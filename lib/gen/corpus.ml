module Instr = Bor_isa.Instr
module Reg = Bor_isa.Reg
module Program = Bor_isa.Program

let cond_name = function
  | Instr.Eq -> "beq"
  | Instr.Ne -> "bne"
  | Instr.Lt -> "blt"
  | Instr.Ge -> "bge"
  | Instr.Ltu -> "bltu"
  | Instr.Geu -> "bgeu"

(* Direct control flow is rendered with labels; everything else
   round-trips through [Instr.to_string] (the assembler parses every
   mnemonic spelling the printer emits). *)
let render i ins =
  let lbl off = Printf.sprintf "L%d" (i + off) in
  match ins with
  | Instr.Branch (c, r1, r2, off) ->
    Printf.sprintf "%s %s, %s, %s" (cond_name c) (Reg.name r1) (Reg.name r2)
      (lbl off)
  | Instr.Jal (rd, off) -> Printf.sprintf "jal %s, %s" (Reg.name rd) (lbl off)
  | Instr.Brr (f, off) ->
    Printf.sprintf "brr #%d, %s" (Bor_core.Freq.to_field f) (lbl off)
  | Instr.Brr_always off -> Printf.sprintf "brra %s" (lbl off)
  | ins -> Instr.to_string ins

let to_asm ?(tool = "bor fuzz") ?seed ?note (p : Program.t) =
  let text = p.Program.text in
  let n = Array.length text in
  let targets = Hashtbl.create 32 in
  Array.iteri
    (fun i ins ->
      match Instr.branch_offset ins with
      | Some off ->
        let t = i + off in
        if t < 0 || t > n then
          invalid_arg
            (Printf.sprintf
               "Corpus.to_asm: branch at index %d targets %d (text has %d \
                instructions)"
               i t n);
        Hashtbl.replace targets t ()
      | None -> ())
    text;
  let entry_idx =
    let d = p.Program.entry - p.Program.text_base in
    if d land 3 = 0 && d >= 0 && d / 4 < n then d / 4 else -1
  in
  let site_at =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (addr, id) ->
        let d = addr - p.Program.text_base in
        if d land 3 = 0 && d >= 0 && d / 4 < n then Hashtbl.replace tbl (d / 4) id)
      p.Program.sites;
    fun i -> Hashtbl.find_opt tbl i
  in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "; %s reproducer\n" tool;
  (match seed with Some s -> out "; seed %d\n" s | None -> ());
  (match note with Some s -> out "; %s\n" s | None -> ());
  out ".text\n";
  for i = 0 to n - 1 do
    if i = entry_idx then out "main:\n";
    if Hashtbl.mem targets i then out "L%d:\n" i;
    (match site_at i with Some id -> out "site %d\n" id | None -> ());
    out "  %s\n" (render i text.(i))
  done;
  (* A branch may legally target one-past-the-end of the text. *)
  if Hashtbl.mem targets n then out "L%d:\n" n;
  if Bytes.length p.Program.data > 0 then begin
    out "\n.data\n";
    let nb = Bytes.length p.Program.data in
    let i = ref 0 in
    while !i < nb do
      let chunk = min 16 (nb - !i) in
      let bytes =
        List.init chunk (fun j ->
            string_of_int (Char.code (Bytes.get p.Program.data (!i + j))))
      in
      out ".byte %s\n" (String.concat ", " bytes);
      i := !i + chunk
    done
  end;
  Buffer.contents buf

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write ~dir ~name ?tool ?seed ?note p =
  mkdirs dir;
  let path = Filename.concat dir (name ^ ".s") in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_asm ?tool ?seed ?note p);
      close_out oc);
  path

let load_file = Bor_isa.Toolchain.load_program_file

let files ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".s")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []
