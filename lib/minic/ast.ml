type ty = Tint | Tchar | Tarray of ty * int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land
  | Lor

type unop = Neg | Bnot | Lnot

type expr = { desc : expr_desc; eline : int }

and expr_desc =
  | Num of int
  | Var of string
  | Index of string * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list

type stmt = { sdesc : stmt_desc; sline : int }

and stmt_desc =
  | Decl of ty * string * expr option
  | Assign of string * expr
  | Index_assign of string * expr * expr
  | If of expr * block * block
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option
  | Expr of expr
  | Block of block
  | Break
  | Continue

and block = stmt list

type func = {
  fname : string;
  ret : ty option;
  params : (ty * string) list;
  body : block;
  fline : int;
}

type global = {
  gname : string;
  gty : ty;
  ginit : int list option;
  gline : int;
}

type program = { globals : global list; funcs : func list }

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs
