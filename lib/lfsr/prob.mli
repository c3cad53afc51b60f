(** The Figure 7 probability tree: 15 AND gates (one of each size from 2
    to 16 inputs, shared as a cascade) plus the direct 50% bit, with a
    16-way mux selecting the output named by a branch-on-random's
    4-bit frequency field. *)

type t

val create : ?max_k:int -> width:int -> Bit_select.t -> t
(** [create ~width select] precomputes the AND-input masks for
    [k = 1 .. max_k] (default 16, the paper's 4-bit field). Raises
    [Invalid_argument] when the widest gate needs more bits than the
    register has. For [Contiguous] and [Spaced] the table is built once
    per [(select, width, max_k)] and shared by every later call, from
    any domain; a [Custom] selector's is built on every call. *)

val taken : t -> state:int -> k:int -> bool
(** [taken t ~state ~k] is the output of the size-[k] AND gate over the
    current register value — 1 iff all [k] selected bits are set, i.e.
    true with probability ≈ [(1/2)^k]. *)

val mask : t -> k:int -> int
(** The OR of the selected bit positions, for inspection and tests. *)
