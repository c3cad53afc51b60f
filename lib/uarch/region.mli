(** Warm state as named regions: one layout for every table a
    checkpoint carries.

    A region names one piece of a structure's warm state: a table,
    viewed as the structure's own [Bytes.t], or a scalar read and
    written through a getter and a setter. Each structure lists its
    regions once, as a static value, and {!Block.regions} joins them;
    capture, restore and the checkpoint codec are each one loop over
    that list. The views are for those loops only: hot paths read their
    structure's fields directly. *)

type kind =
  | Counters  (** one 2-bit counter (0..3) per byte *)
  | Words  (** one 8-byte native-endian int per entry *)

type 'a t =
  | Table of string * kind * ('a -> Bytes.t)
  | Scalar of string * ('a -> int) * ('a -> int -> unit)

type value = Int of int | Data of kind * Bytes.t
(** A captured region: a scalar's value, or a copy of a table's
    bytes. *)

val width : kind -> int
(** Bytes per entry in memory: 1 for [Counters], 8 for [Words]. *)

val table : ?reuse:'a -> ('a -> Bytes.t) -> int -> char -> Bytes.t
(** [table get n fill]: [n] bytes of [fill]. With [~reuse:old] whose
    table [get old] has length [n], that table refilled (one memset)
    instead of a new one; nothing else is allocated. *)

val lift : ?prefix:string -> ('a -> 'b) -> 'b t list -> 'a t list
(** The regions of a structure reached through a projection, their
    names prefixed by [prefix ^ "."]. *)

val capture : 'a t list -> 'a -> (string * value) list
(** Every region's value, tables copied. *)

val restore : 'a t list -> 'a -> (string * value) list -> unit
(** Write captured values back, in order.
    @raise Invalid_argument naming the first region whose name, kind or
    table length does not match. *)
