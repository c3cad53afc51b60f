(** Return address stack (32 entries in the paper's configuration),
    consulted at fetch for [jalr]-through-[ra] returns and pushed by
    calls. Overflow wraps; underflow predicts nothing. *)

type t

val create : entries:int -> t
(** @raise Invalid_argument unless [entries] is a power of two. *)

val push : t -> int -> unit
val pop : t -> int option

val pop_target : t -> int
(** Like {!pop} but -1 on underflow: the fetch-stage hot path, no
    option allocation (return addresses are non-negative). *)

val depth : t -> int

(** {2 Checkpointing}

    Used by the pipeline to unwind speculative RAS motion on a flush.
    Snapshots copy raw state and bypass the telemetry counters — they
    are simulator bookkeeping, not architectural pushes/pops. *)

type snapshot

val blank_snapshots : ?reuse:snapshot array -> t -> int -> snapshot array
(** [n] blank buffers matching [t]'s geometry, for {!save_into} — lets
    a caller pool snapshots instead of allocating one per save. With
    [~reuse:old], [n] buffers of that geometry, [old] is blanked in
    place and returned; otherwise the buffers are new. *)

val save_into : t -> snapshot -> unit
(** [save_into t s] overwrites [s] with the current state; [s] must
    come from {!blank_snapshots} on a stack of the same
    size. Allocation-free. *)

val restore : t -> snapshot -> unit

val check : ?cycle:int -> t -> unit
(** Sanitizer pass: [top] is a valid index and [depth] lies in
    [[0, entries]]. Raises {!Bor_check.Check.Violation} (component
    ["ras"]). Unconditional — callers gate on [!Bor_check.Check.on]. *)

val check_snapshot : ?cycle:int -> snapshot -> unit
(** Same shape invariants for a snapshot — the pipeline audits every
    in-flight branch's saved stack with it. *)

val regions : t Region.t list
(** The full stack for checkpoints, in checkpoint order: [top],
    [depth], then the stack's words. Unlike {!snapshot}, a pooled
    buffer private to the pipeline's flush machinery, these views
    serve capture and restore. *)

val state_digest : t -> string
(** SHA-256 of the live entries (oldest to newest) and the depth, for
    the warming-equivalence tests. *)
