type vreg = int
type operand = Vr of vreg | Imm of int
type sym = Global of string | Frame of int

type inst =
  | Bin of Bor_isa.Instr.alu_op * vreg * operand * operand
  | Set_cond of Bor_isa.Instr.cond * vreg * operand * operand
  | Addr of vreg * sym
  | Load of Bor_isa.Instr.width * vreg * operand * int
  | Store of Bor_isa.Instr.width * operand * operand * int
  | Load_global of Bor_isa.Instr.width * vreg * string * int
  | Store_global of Bor_isa.Instr.width * operand * string * int
  | Call of string * operand list * vreg option
  | Marker of int

type label = int

type term =
  | Jump of label
  | Cond of Bor_isa.Instr.cond * operand * operand * label * label
  | Brr_branch of Bor_core.Freq.t * label * label
  | Jump_always of label
  | Ret of operand option

type block = {
  label : label;
  mutable body : inst list;
  mutable term : term;
  mutable is_backedge : bool;
  mutable site : int option;
}

type func = {
  name : string;
  params : vreg list;
  entry : label;
  blocks : (label, block) Hashtbl.t;
  mutable block_order : label list;
  mutable next_vreg : int;
  mutable next_label : int;
  mutable frame_slots : int list;
}

let create_func ~name ~nparams =
  let f =
    {
      name;
      params = List.init nparams (fun i -> i);
      entry = 0;
      blocks = Hashtbl.create 16;
      block_order = [];
      next_vreg = nparams;
      next_label = 0;
      frame_slots = [];
    }
  in
  f

let fresh_vreg f =
  let v = f.next_vreg in
  f.next_vreg <- v + 1;
  v

let fresh_block f term =
  let label = f.next_label in
  f.next_label <- label + 1;
  let b = { label; body = []; term; is_backedge = false; site = None } in
  Hashtbl.replace f.blocks label b;
  f.block_order <- f.block_order @ [ label ];
  b

let block f l =
  match Hashtbl.find_opt f.blocks l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ir.block: no block %d in %s" l f.name)

let append_inst b i = b.body <- b.body @ [ i ]

let move_after f ~anchor label =
  if anchor = label then invalid_arg "Ir.move_after: anchor = label";
  let without = List.filter (fun l -> l <> label) f.block_order in
  let rec weave = function
    | [] -> invalid_arg "Ir.move_after: anchor not found"
    | l :: rest when l = anchor -> l :: label :: rest
    | l :: rest -> l :: weave rest
  in
  f.block_order <- weave without

let alloc_frame_slot f ~bytes =
  let slot = List.length f.frame_slots in
  f.frame_slots <- f.frame_slots @ [ bytes ];
  slot

let successors = function
  | Jump l | Jump_always l -> [ l ]
  | Cond (_, _, _, t, ft) | Brr_branch (_, t, ft) -> [ t; ft ]
  | Ret _ -> []

let map_term_labels g = function
  | Jump l -> Jump (g l)
  | Jump_always l -> Jump_always (g l)
  | Cond (c, a, b, t, ft) -> Cond (c, a, b, g t, g ft)
  | Brr_branch (f, t, ft) -> Brr_branch (f, g t, g ft)
  | Ret o -> Ret o

(* Greedy fall-through chaining. *)
let chain_layout f =
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec chain l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      out := l :: !out;
      match (block f l).term with
      | Jump t -> chain t
      | Cond (_, _, _, _, fall) | Brr_branch (_, _, fall) -> chain fall
      | Jump_always _ | Ret _ -> ()
    end
  in
  List.iter chain f.block_order;
  f.block_order <- List.rev !out

let vregs_used f = f.next_vreg
let iter_blocks f g = List.iter (fun l -> g (block f l)) f.block_order

let pp_operand ppf = function
  | Vr v -> Format.fprintf ppf "v%d" v
  | Imm i -> Format.fprintf ppf "%d" i

let pp_sym ppf = function
  | Global s -> Format.fprintf ppf "@%s" s
  | Frame i -> Format.fprintf ppf "frame[%d]" i

let alu_name op =
  Format.asprintf "%a" Bor_isa.Instr.pp
    (Bor_isa.Instr.Alu (op, Bor_isa.Reg.zero, Bor_isa.Reg.zero, Bor_isa.Reg.zero))
  |> String.split_on_char ' '
  |> List.hd

let pp_inst ppf = function
  | Bin (op, d, a, b) ->
    Format.fprintf ppf "v%d := %s %a, %a" d (alu_name op) pp_operand a
      pp_operand b
  | Set_cond (c, d, a, b) ->
    Format.fprintf ppf "v%d := cmp%s %a, %a" d
      (match c with
      | Bor_isa.Instr.Eq -> "eq"
      | Bor_isa.Instr.Ne -> "ne"
      | Bor_isa.Instr.Lt -> "lt"
      | Bor_isa.Instr.Ge -> "ge"
      | Bor_isa.Instr.Ltu -> "ltu"
      | Bor_isa.Instr.Geu -> "geu")
      pp_operand a pp_operand b
  | Addr (d, s) -> Format.fprintf ppf "v%d := addr %a" d pp_sym s
  | Load (w, d, base, off) ->
    Format.fprintf ppf "v%d := load%s %a + %d" d
      (match w with Bor_isa.Instr.Word -> "w" | Bor_isa.Instr.Byte -> "b")
      pp_operand base off
  | Store (w, v, base, off) ->
    Format.fprintf ppf "store%s %a -> %a + %d"
      (match w with Bor_isa.Instr.Word -> "w" | Bor_isa.Instr.Byte -> "b")
      pp_operand v pp_operand base off
  | Load_global (_, d, sym, off) ->
    Format.fprintf ppf "v%d := load @%s+%d" d sym off
  | Store_global (_, v, sym, off) ->
    Format.fprintf ppf "store %a -> @%s+%d" pp_operand v sym off
  | Call (f, args, ret) ->
    Format.fprintf ppf "%scall %s(%a)"
      (match ret with Some v -> Printf.sprintf "v%d := " v | None -> "")
      f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_operand)
      args
  | Marker n -> Format.fprintf ppf "marker %d" n

let pp_term ppf = function
  | Jump l -> Format.fprintf ppf "jump L%d" l
  | Jump_always l -> Format.fprintf ppf "brra L%d" l
  | Cond (_, a, b, t, ft) ->
    Format.fprintf ppf "cond %a ? %a -> L%d | L%d" pp_operand a pp_operand b t
      ft
  | Brr_branch (f, t, ft) ->
    Format.fprintf ppf "brr %a -> L%d | L%d" Bor_core.Freq.pp f t ft
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some o) -> Format.fprintf ppf "ret %a" pp_operand o

let to_dot f =
  let buf = Buffer.create 1024 in
  let put fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  put "digraph %s {\n  node [shape=box, fontname=monospace];\n" f.name;
  iter_blocks f (fun b ->
      let body =
        String.concat "\\l"
          (List.map (fun i -> Format.asprintf "%a" pp_inst i) b.body)
      in
      let label =
        Printf.sprintf "L%d%s\\l%s%s\\l" b.label
          (match b.site with
          | Some s -> Printf.sprintf " [site %d]" s
          | None -> "")
          (if body = "" then "" else body ^ "\\l")
          (Format.asprintf "%a" pp_term b.term)
      in
      put "  n%d [label=\"%s\"%s];\n" b.label
        (String.concat "'" (String.split_on_char '"' label))
        (if b.site <> None then ", style=filled, fillcolor=lightgrey"
         else "");
      let edge ?(attrs = "") dst =
        put "  n%d -> n%d%s;\n" b.label dst
          (if attrs = "" then "" else " [" ^ attrs ^ "]")
      in
      match b.term with
      | Jump l -> edge ~attrs:(if b.is_backedge then "penwidth=2" else "") l
      | Jump_always l -> edge ~attrs:"style=dashed" l
      | Cond (_, _, _, t, ft) ->
        edge ~attrs:"label=taken" t;
        edge ft
      | Brr_branch (_, t, ft) ->
        edge ~attrs:"style=dashed, label=brr" t;
        edge ft
      | Ret _ -> ());
  put "}\n";
  Buffer.contents buf
