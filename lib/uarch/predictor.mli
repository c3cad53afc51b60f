(** Direction predictors: the paper's tournament of a 16-bit gshare and
    a large bimodal table, chosen per branch by a 2-bit chooser.

    Branch-on-random instructions never consult or update these
    structures (paper §3.3): they are forced not-taken, keeping the
    tables and the global history free of sampling noise. Counter-based
    sampling branches, by contrast, go through here like any other
    conditional branch — which is exactly the pollution the paper
    measures. *)

type t

type prediction = int
(** Packed prediction (direction, component votes, training index and
    history snapshot in one immediate int, so in-flight queues can hold
    predictions in flat [int array]s with no allocation per fetched
    branch). Treat as opaque: read with {!taken}, pass back to
    [update]/[recover]. *)

val taken : prediction -> bool
(** The predicted direction. *)

val none : prediction
(** Placeholder for slots that carry no prediction. *)

val create : ?reuse:t -> Config.t -> t
(** A predictor at its initial state: weakly-not-taken direction
    counters, a chooser weakly preferring gshare, empty history. With
    [~reuse:old], each of [old]'s tables whose size matches [Config.t]
    is refilled and shared instead of allocated (a mismatched one is
    allocated afresh); telemetry instruments are always new. [old] must
    not be used again.
    @raise Invalid_argument unless [bimodal_entries] is a power of
    two. *)

val predict : t -> pc:int -> prediction
(** Also speculatively shifts the prediction into the global history
    (standard speculative-history management). *)

val update : t -> pc:int -> prediction -> taken:bool -> unit
(** Train tables at resolution with the actual direction. *)

val recover : t -> prediction -> taken:bool -> unit
(** Restore the global history after a squash: rewind to the snapshot
    and push the branch's actual direction. *)

val ghist : t -> int
(** Current (speculative) global history, for tests. *)

val restore_ghist : t -> int -> unit
(** Reset the history to a recorded fetch-time value (recovery for
    resolvers that never consulted the direction predictor, e.g.
    mispredicted returns). *)

val regions : t Region.t list
(** The complete predictive state, in checkpoint order: the global
    history, then the gshare, bimodal and chooser counter tables (one
    counter per byte). Telemetry counters are excluded. *)

val state_digest : t -> string
(** SHA-256 of all three counter tables plus the global history, for
    the warming-equivalence tests. *)
