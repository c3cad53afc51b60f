(** Lightweight IR optimisations, run before instrumentation (and a
    structure-preserving cleanup after it).

    - constant folding and block-local constant propagation;
    - dead-instruction elimination (pure defs whose value is never
      used, driven by block-level liveness);
    - jump threading: empty forwarding blocks are bypassed;
    - unreachable-block elimination.

    Threading and block removal never touch blocks that carry an
    instrumentation site or close a loop ([is_backedge]) — those are
    structural anchors for the Arnold–Ryder transforms and for
    ground-truth profiling. *)

val run : Ir.func -> unit
(** The full pre-instrumentation pipeline, iterated to a fixpoint. *)

val cleanup : Ir.func -> unit
(** The post-instrumentation passes (threading + unreachable removal),
    which preserve sites and check structure. *)
