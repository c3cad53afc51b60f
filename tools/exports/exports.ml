(* Dead-export checker: reads the .cmti/.cmt files dune builds and
   lists every [val] exported by a lib/**/*.mli that no other
   compilation unit references ("dead"), or that only test/ does
   ("test-only").  A value counts as referenced when an identifier
   resolves to it ([Texp_ident], keyed by [val_uid]) or when its whole
   module is used as a module: included, passed to a functor, or
   packed as a first-class module.

   Usage: exports.exe ROOT EXPECTED, with ROOT the build context
   (lib/, bin/, bench/, examples/ and test/ below it).  The reason
   after " -- " on each test-only line of EXPECTED is carried into
   the output, which the runtest rule diffs against EXPECTED. *)

open Typedtree

let rec files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if List.exists (Filename.check_suffix p) [ ".cmt"; ".cmti" ]
           then [ p ]
           else [])

(* [Bor_exec__Backend] and [Bor_exec.Backend] both name the module
   [Bor_exec.Backend]. *)
let public name =
  let b = Buffer.create 32 and n = String.length name in
  let rec go i =
    if i + 1 < n && name.[i] = '_' && name.[i + 1] = '_' then (
      Buffer.add_char b '.';
      go (i + 2))
    else if i < n then (
      Buffer.add_char b name.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

(* Public value name -> defining unit, and val_uid -> public name. *)
let defined : (string, string) Hashtbl.t = Hashtbl.create 1024
let by_uid : string Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 1024

(* Public value name -> top directory of each referencing unit. *)
let users : (string, string) Hashtbl.t = Hashtbl.create 1024

let rec export unit prefix sg =
  List.iter
    (function
      | Types.Sig_value (id, vd, _) ->
          let n = prefix ^ "." ^ Ident.name id in
          Hashtbl.replace defined n unit;
          Shape.Uid.Tbl.replace by_uid vd.Types.val_uid n
      | Types.Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          export unit (prefix ^ "." ^ Ident.name id) sg
      | _ -> ())
    sg

let use dir unit n =
  match Hashtbl.find_opt defined n with
  | Some u when u <> unit -> Hashtbl.add users n dir
  | _ -> ()

let scan dir unit str =
  let rec module_use (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) ->
        let prefix = public (Path.name p) ^ "." in
        Hashtbl.iter
          (fun n _ -> if String.starts_with ~prefix n then use dir unit n)
          defined
    | Tmod_constraint (me, _, _, _) -> module_use me
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) ->
        Option.iter (use dir unit) (Shape.Uid.Tbl.find_opt by_uid vd.val_uid)
    | Texp_pack me -> module_use me
    | _ -> ());
    super.expr it e
  in
  let module_expr it me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> module_use arg | _ -> ());
    super.module_expr it me
  in
  let structure_item it si =
    (match si.str_desc with Tstr_include i -> module_use i.incl_mod | _ -> ());
    super.structure_item it si
  in
  let it = { super with expr; module_expr; structure_item } in
  it.structure it str

let () =
  let root = Sys.argv.(1) in
  let reasons = Hashtbl.create 128 in
  In_channel.with_open_text Sys.argv.(2) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | "test-only" :: n :: "--" :: reason ->
             Hashtbl.replace reasons n (String.concat " " reason)
         | _ -> ());
  let cmts =
    List.concat_map (fun d -> files (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples"; "test" ]
    |> List.map (fun f -> Cmt_format.read_cmt f)
  in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Interface s, Some src when String.starts_with ~prefix:"lib/" src ->
          export c.cmt_modname (public c.cmt_modname) s.sig_type
      | _ -> ())
    cmts;
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Implementation s, Some src ->
          scan (List.hd (String.split_on_char '/' src)) c.cmt_modname s
      | _ -> ())
    cmts;
  print_string
    "# Exports of lib/**/*.mli referenced by no other compilation unit\n\
     # (dead), or only from test/ (test-only, each with a reason after\n\
     # \" -- \").  Checked by dune runtest; after an intended change,\n\
     # dune promote.\n";
  let names =
    Hashtbl.fold (fun n _ acc -> n :: acc) defined [] |> List.sort compare
  in
  List.iter
    (fun n -> if Hashtbl.find_all users n = [] then Printf.printf "dead %s\n" n)
    names;
  List.iter
    (fun n ->
      match Hashtbl.find_all users n with
      | _ :: _ as ds when List.for_all (( = ) "test") ds ->
          let reason = Hashtbl.find_opt reasons n in
          Printf.printf "test-only %s%s\n" n
            (Option.fold ~none:"" ~some:(( ^ ) " -- ") reason)
      | _ -> ())
    names
