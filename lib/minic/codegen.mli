(** BRISC assembly generation from allocated IR.

    The output is assembly text for {!Bor_isa.Asm}; going through the
    assembler keeps the pipeline inspectable (the paper's own
    methodology edits assembly between compilation and measurement).

    Layout per function: prologue (frame allocation, [ra] and used
    callee-saved spills, parameter moves), blocks in IR layout order —
    which places instrumentation payload blocks out of line at the end
    of the function, the Figure 8 arrangement — and one shared epilogue.
    A [site N] directive is emitted at each ground-truth site block.

    The generated [main] symbol is a start stub: [marker 1], call the
    minic [main] (label [f_main]), [marker 2], [halt] — the markers
    delimit the region of interest for the timing simulator. *)

type options = {
  counter_interval : int option;
      (** emit [__sample_count]/[__sample_reset] with this interval *)
  n_sites : int;  (** slots in the [__prof] array *)
  roi_markers : bool;  (** emit marker 1/2 around the [f_main] call *)
}

val program : Ast.global list -> Ir.func list -> options -> string
(** Full assembly source: [.text] with all functions, then [.data]. *)
