(** Minimal JSON tree, just enough for the telemetry snapshots and the
    bench harness's [BENCH_*.json] files — emission is deterministic
    (stable field order, two-space indentation, trailing newline), which
    the digest-based regression check depends on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Deterministic pretty-printed serialisation. *)

val of_string : string -> t
(** Inverse of {!to_string} (accepts any JSON built from the
    constructors above; floats are not part of the dialect — the
    harness stores pre-formatted strings instead, so that digests never
    depend on float printing). Raises {!Parse_error} and nothing else,
    whatever the input: on malformed syntax, a lone [-] or an integer
    past 63 bits, a [\u] escape whose four characters are not hex
    digits, and input nested more than {!max_depth} arrays/objects
    deep. *)

val max_depth : int
(** The deepest nesting {!of_string} accepts (512): far above anything
    the repo writes, low enough that parsing stays within the stack. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)
