(** Typed memory accessors.

    The [get_*]/[set_*] family models {e instrumented host code}: each
    call fires the read/write hooks a sanitizer pass would have inserted
    and enforces that host code only dereferences host-accessible memory
    (dereferencing a device pointer on the host is the simulated
    segfault).

    The [raw_*] family models accesses the sanitizer cannot see:
    device-side code and DMA transfers — exactly the visibility gap
    CuSan and MUST must close with annotations (paper, Section II-B). *)

exception Host_access_to_device of string

val f64_size : int
val f32_size : int
val i32_size : int
val i64_size : int

(** {1 Raw accessors} — no hooks, no host/device policing. Indices are
    in elements of the respective size. *)

val raw_get_f64 : Ptr.t -> int -> float
val raw_set_f64 : Ptr.t -> int -> float -> unit
val raw_get_f32 : Ptr.t -> int -> float
val raw_set_f32 : Ptr.t -> int -> float -> unit
val raw_get_i32 : Ptr.t -> int -> int
val raw_set_i32 : Ptr.t -> int -> int -> unit

val f64_extent : Ptr.t -> count:int -> Bytes.t * int
(** [f64_extent p ~count] checks once that elements [0, count) of [p]
    are live and in bounds ({!Alloc.Use_after_free},
    {!Ptr.Out_of_bounds}) and returns the backing bytes with the byte
    offset of element 0. Element [i < count] then lives at
    [off + 8 * i]; loops read and write it with [Bytes.get_int64_le] /
    [Bytes.set_int64_le], which inline under [-opaque] where a
    per-element {!raw_get_f64} call boxes its result. An empty extent
    ([count <= 0]) checks nothing. Invisible to hooks, like the rest of
    the raw family. *)

val raw_blit : src:Ptr.t -> dst:Ptr.t -> bytes:int -> unit
(** Bulk copy, invisible to instrumentation (DMA). *)

val raw_fill : Ptr.t -> bytes:int -> byte:int -> unit

(** {1 Instrumented host accessors} *)

val get_f64 : Ptr.t -> int -> float
val set_f64 : Ptr.t -> int -> float -> unit
val get_i32 : Ptr.t -> int -> int
val set_i32 : Ptr.t -> int -> int -> unit

val read_range : Ptr.t -> int -> unit
(** Announce a bulk instrumented host read of [bytes] (one hook covering
    the range, like vectorized instrumentation of a plain loop). *)

val write_range : Ptr.t -> int -> unit
