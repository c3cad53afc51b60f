(** Dominator analysis and natural-loop detection over the IR CFG
    (Cooper–Harvey–Kennedy iterative algorithm).

    The lowering marks loop backedges syntactically as it builds the
    CFG; this module recovers the same facts semantically, which the
    test suite uses to validate the markings, and which instrumentation
    clients can use on CFGs that did not come from {!Lower}. *)

type t

val compute : Ir.func -> t

val idom : t -> Ir.label -> Ir.label option
(** Immediate dominator; [None] for the entry (and for unreachable
    blocks). *)

val dominates : t -> Ir.label -> Ir.label -> bool
(** [dominates t a b] — does [a] dominate [b]? Reflexive. *)

val backedges : t -> (Ir.label * Ir.label) list
(** CFG edges [(src, dst)] where [dst] dominates [src] — the natural
    loop backedges. *)

val natural_loop : t -> src:Ir.label -> header:Ir.label -> Ir.label list
(** The body of the natural loop of a backedge: every block that can
    reach [src] without passing through [header], plus the header. *)

val dominator_depth : t -> Ir.label -> int
(** Distance from the entry in the dominator tree (entry = 0). *)
