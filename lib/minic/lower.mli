(** AST-to-IR lowering: structured statements become explicit basic
    blocks, expressions become three-address code over virtual
    registers, short-circuit operators become control flow.

    Loop backedges are marked on the jumping block as they are created
    ({!Ir.block.is_backedge}), which is what Full-Duplication's check
    placement later consumes — no dominator analysis needed for
    structured minic code. *)

val program : Ast.program -> Ir.func list
(** Lower every function of a typechecked program, in source order. *)
