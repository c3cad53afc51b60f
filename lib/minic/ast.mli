(** Abstract syntax of minic, the small imperative language used to
    build the paper's workloads.

    minic is a C subset: [int]/[char] scalars, fixed-size global and
    local arrays, functions with up to four scalar parameters,
    [if]/[while]/[for]/[break]/[continue]/[return], and the usual
    operators except division (BRISC has no divide unit; none of the
    paper's workloads need one). *)

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
  | Land  (** short-circuit && *)
  | Lor  (** short-circuit || *)

type unop = Neg | Bnot | Lnot

type expr = { desc : expr_desc; eline : int }

and expr_desc =
  | Num of int
  | Var of string
  | Index of string * expr  (** [a[e]] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list

type stmt = { sdesc : stmt_desc; sline : int }

and stmt_desc =
  | Decl of ty * string * expr option
  | Assign of string * expr
  | Index_assign of string * expr * expr  (** [a[e1] = e2] *)
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
  ret : ty option;  (** [None] = void *)
  params : (ty * string) list;
  body : block;
  fline : int;
}

type global = {
  gname : string;
  gty : ty;
  ginit : int list option;  (** words/bytes; [None] = zero *)
  gline : int;
}

type program = { globals : global list; funcs : func list }

val find_func : program -> string -> func option
