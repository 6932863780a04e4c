(** The race-detection engine: a FastTrack-style happens-before detector
    offering the subset of the ThreadSanitizer API that MUST and CuSan
    build on — fibers, the [AnnotateHappensBefore]/[AnnotateHappensAfter]
    pair keyed by an integer address, and
    [tsan_read_range]/[tsan_write_range].

    One detector instance corresponds to one process under TSan; the
    harness creates one per MPI rank. Detected races are recorded (and
    deduplicated by origin pair) rather than raised, like TSan's
    reporting. *)

type t
type fiber

val create :
  ?granule:int -> ?report_limit:int -> ?suppressions:string list -> unit -> t
(** A fresh detector whose only fiber is ["main"] (the host thread).
    [granule] is the shadow-cell size in bytes (default 8);
    [report_limit] caps stored reports (default 64); [suppressions] are
    substring patterns, see {!Suppress}. *)

(** {1 Fibers}

    Fibers model user-defined concurrency: CUDA streams, non-blocking
    MPI requests, host threads. Switching fibers does not by itself
    synchronize (paper, Section II-A). *)

val main_fiber : t -> fiber
val fiber_create : t -> string -> fiber

val fiber_create_inherit : t -> string -> fiber
(** Like {!fiber_create}, but the new fiber starts ordered after
    everything the current fiber did so far — thread-creation
    semantics. *)

val fiber_spawn : t -> string -> fiber
(** [fiber_spawn t name] is {!fiber_create} followed by
    {!switch_to_fiber_sync}, with the same counters: the new fiber is
    ordered after the current fiber's past and becomes current. Its slot
    is the lowest retired one whose final release the current fiber has
    acquired, if any — the new owner's clock component then starts one
    above the last value the old owner published — or a fresh one.
    For short-lived fibers such as MPI requests, paired with
    {!fiber_retire}. *)

val fiber_retire : t -> fiber -> unit
(** [fiber_retire t f] declares that [f] will never run again and frees
    its slot for {!fiber_spawn} — provided [f]'s last action was a
    release ({!happens_before}, or being the source of
    {!switch_to_fiber_sync} or {!fiber_create_inherit}). A fiber that
    accessed memory after its last release keeps its slot forever.
    Reports keep naming [f] for its own accesses.
    @raise Invalid_argument for the current fiber, the main fiber, or a
    fiber retired before. *)

val current_fiber : t -> fiber

val switch_to_fiber : t -> fiber -> unit
(** Plain switch: no synchronization implied. *)

val switch_to_fiber_sync : t -> fiber -> unit
(** Switch that also orders the current fiber's past before the target
    fiber's future (release from source, acquire into target): used when
    entering the fiber of an operation the host just issued. *)

val activate_fiber : t -> fiber -> unit
(** Retarget the detector without recording a switch or synchronizing:
    for scheduler-driven context changes between host threads. *)

(** {1 Contexts}

    A per-fiber stack of labels standing in for call stacks; the top
    label becomes the "origin" of annotated accesses in race reports. *)

val push_context : t -> string -> unit
val pop_context : t -> unit
val with_context : t -> string -> (unit -> 'a) -> 'a

(** {1 Synchronization annotations} *)

val happens_before : t -> int -> unit
(** Release: publish the current fiber's clock under the key and advance
    the fiber's own component. *)

val happens_after : t -> int -> unit
(** Acquire: learn everything published under the key; a no-op when
    nothing was (like TSan). *)

(** {1 Memory access annotations} *)

val read_range : t -> addr:int -> len:int -> unit
val write_range : t -> addr:int -> len:int -> unit

val rw_range : t -> addr:int -> len:int -> unit
(** Read followed by write of one extent (a kernel argument with RW
    access) with the region lookup shared; semantically identical to
    {!read_range} then {!write_range}, and counted as one of each. *)

val set_observer :
  t -> (kind:[ `Read | `Write ] -> addr:int -> len:int -> unit) option -> unit
(** Install (or clear) an observer called with every checked access
    range before it is checked; {!rw_range} reports one read and one
    write. The schedule explorer uses this to learn which extents each
    scheduling slice touched. With no observer installed — the default —
    the cost is one field test per range. The observer must not call
    back into the detector. *)

(** {1 Allocator interception} *)

val on_alloc : t -> base:int -> size:int -> unit
val on_free : t -> base:int -> unit

(** {1 Results} *)

val races : t -> Report.t list
(** Deduplicated reports, in detection order. *)

val race_count : t -> int

val races_total : t -> int
(** Raw race events, including deduplicated and over-limit ones. *)

val counters : t -> Counters.t
val suppressed_count : t -> int

val shadow_bytes : t -> int
(** Materialized shadow memory (see {!Shadow}). *)

val shadow_bytes_peak : t -> int

val sync_bytes : t -> int
(** Footprint of the synchronization-clock table. *)

val pp_races : Format.formatter -> t -> unit
