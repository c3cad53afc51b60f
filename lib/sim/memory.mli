(** Flat little-endian byte-addressable data memory for the simulators.

    The text segment is not stored here — instructions are fetched from
    the program image — but the data segment is copied in at load time
    and the stack grows down from the top.

    Writes are tracked at 4 KiB page granularity, which makes
    {!snapshot} / {!restore} proportional to the written working set
    rather than the memory size — cheap enough to checkpoint once per
    sampled-simulation window. *)

type t

exception Fault of string
(** Raised on out-of-bounds or misaligned accesses. *)

val create : size:int -> t
val size : t -> int

val check_segment : size:int -> base:int -> int -> (unit, string) result
(** [check_segment ~size ~base len] is [Ok ()] when [len] bytes at
    [base] fit a memory of [size] bytes, and otherwise the message
    {!load_segment} raises with. *)

val load_segment : t -> base:int -> Bytes.t -> unit
(** Copy a program's data segment to [base] (marks the range dirty, so
    snapshots are self-contained over a blank image).
    @raise Fault if it does not fit ({!check_segment}). *)

val read_word : t -> int -> int
(** Aligned 4-byte little-endian read, sign-extended to 32-bit. *)

val write_word : t -> int -> int -> unit

val read_byte : t -> int -> int
(** Zero-extended byte read. *)

val write_byte : t -> int -> int -> unit

val clear : t -> unit
(** Return the memory to the state {!create} left it in: zero every
    dirty page, then clear the dirty bitmap. Costs time proportional to
    the pages written since creation (or the last [clear]) plus one
    byte load per eight pages of the bitmap, not to the memory size,
    and allocates nothing, which is what makes a memory worth
    reusing. *)

(** {1 Snapshots} *)

type snapshot
(** The dirty pages of a memory at capture time. Restoring into any
    same-size memory whose own writes are tracked (i.e. one built by
    {!create}) reproduces the captured contents exactly: pages dirty in
    the target but absent from the snapshot are zeroed. *)

val page_bytes : int
(** Page granularity of dirty tracking (4096). *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val snapshot_size : snapshot -> int
(** Size of the memory the snapshot was taken from. *)

val snapshot_pages : snapshot -> (int * Bytes.t) array
(** [(page index, contents)] pairs, ascending; for serialization. *)

val snapshot_of_pages : size:int -> (int * Bytes.t) array -> snapshot
(** Rebuild a snapshot from serialized pages. Raises [Invalid_argument]
    on out-of-range indices or short pages. *)
