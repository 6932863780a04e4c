(** Typed memory accessors.

    The [get_*]/[set_*] family models {e instrumented host code}: each
    call fires the read/write hooks a sanitizer pass would have inserted
    and enforces that host code only dereferences host-accessible memory
    (dereferencing a device pointer on the host is the simulated
    segfault).

    The [raw_*] family models accesses the sanitizer cannot see:
    device-side code and DMA transfers — exactly the visibility gap
    CuSan and MUST must close with annotations (paper, Section II-B).

    This is the only module that knows the store format ({!Alloc.data}:
    little-endian 64-bit words). f64 accesses at 8-aligned offsets move
    one word; i32/f32 accesses, misaligned f64 accesses and byte ranges
    are emulated through the word bits. *)

exception Host_access_to_device of string

exception Misaligned_address of string
(** An f64 extent over a pointer that is not 8-aligned: on real
    hardware, an 8-byte device access at such an address fails with
    [cudaErrorMisalignedAddress]. The payload names the pointer. *)

(** {1 Raw accessors} — no hooks, no host/device policing. Indices are
    in elements of the respective size. *)

val raw_get_f64 : Ptr.t -> int -> float
val raw_set_f64 : Ptr.t -> int -> float -> unit
val raw_get_f32 : Ptr.t -> int -> float
val raw_set_f32 : Ptr.t -> int -> float -> unit
val raw_get_i32 : Ptr.t -> int -> int
val raw_set_i32 : Ptr.t -> int -> int -> unit

val f64_extent : Ptr.t -> count:int -> floatarray * int
(** [f64_extent p ~count] checks once that elements [0, count) of [p]
    are live and in bounds ({!Alloc.Use_after_free},
    {!Ptr.Out_of_bounds}) and that [p] is 8-aligned
    ({!Misaligned_address}), then returns the word store [a] with the
    index [w] of the word holding element 0. Element [i < count] is then
    word [w + i] of [a]. [count] is compared against the words left by
    division, so no [count], however large, passes as a smaller one. An
    empty extent ([count <= 0]) checks nothing. Invisible to hooks, like
    the rest of the raw family.

    A loop reads and writes the extent's words in place, unboxed. An
    elementwise loop over [i < count] may use
    [Float.Array.unsafe_get]/[unsafe_set] on [w + i] directly; any other
    index pattern goes through {!f64_span} first. *)

val f64_span : count:int -> int -> int -> unit
(** [f64_span ~count lo hi] guards an unchecked run of words: elements
    [lo, hi] of an extent of [count] elements, checked once per run (a
    stencil checks each row's lowest and highest element). A kernel
    whose extent covers its loop never fails it.
    @raise Invalid_argument unless [0 <= lo <= hi < count] *)

val grid_cells : nx:int -> ny:int -> int
(** [grid_cells ~nx ~ny] is the [nx * ny] elements of a row-major grid,
    0 when either is below 1, and [max_int] when the product does not fit
    an int: found by division, so that hostile dimensions give a count
    that no extent holds instead of a wrapped one that an extent passes. *)

val raw_blit : src:Ptr.t -> dst:Ptr.t -> bytes:int -> unit
(** Bulk copy, invisible to instrumentation (DMA). [memmove] semantics:
    overlapping ranges within one allocation copy as if through a
    temporary. *)

val raw_fill : Ptr.t -> bytes:int -> byte:int -> unit
(** Sets [bytes] bytes to [byte land 0xff] ([memset]). *)

val raw_read_bytes : Ptr.t -> bytes:int -> Bytes.t
(** A checked snapshot of [bytes] bytes from [p] (an MPI message, a
    checkpoint). Invisible to hooks. *)

val raw_write_bytes : Ptr.t -> Bytes.t -> unit
(** [raw_write_bytes p b] checks that [Bytes.length b] bytes fit at [p],
    then restores them from [b]. Invisible to hooks. *)

(** {1 Instrumented host accessors} *)

val get_f64 : Ptr.t -> int -> float
val set_f64 : Ptr.t -> int -> float -> unit
val get_i32 : Ptr.t -> int -> int
val set_i32 : Ptr.t -> int -> int -> unit

val read_range : Ptr.t -> int -> unit
(** Announce a bulk instrumented host read of [bytes] (one hook covering
    the range, like vectorized instrumentation of a plain loop). *)

val write_range : Ptr.t -> int -> unit
