(** Order-preserving parallel map over an OCaml 5 domain pool — the
    batch fan-out shared by [bor opt]'s search chains
    ({!Bor_opt.Search}) and [bench --jobs]. Detailed sampling windows
    fan out through {!Wqueue} instead.

    Work items are claimed dynamically off a shared atomic cursor, so
    uneven item costs balance across workers; results land in the slot
    of the item that produced them, so the output order is the
    submission order regardless of completion order. *)

val map : ?domains:int -> ?init:(unit -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f items] applies [f] to every item on up to [domains]
    worker domains ([1], the default, runs sequentially in the calling
    domain with no spawn at all). [init] runs once per worker domain
    before it claims work — the hook for per-domain setup such as
    enabling the domain-local telemetry registry or sanitizer state.

    If any [f] raises, every remaining claimed item still runs to
    completion, all workers are joined, and then the exception of the
    {e earliest} item (submission order) is re-raised in the caller —
    deterministic regardless of scheduling. *)
