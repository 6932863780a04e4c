(** The simulated CUDA device: streams as FIFO queues of operations over
    a dependency DAG, CUDA events, legacy default-stream semantics
    (Fig. 3 of the paper), and an interception hook interface for
    correctness tools.

    Dependency edges encode device-side ordering: each op depends on its
    stream predecessor; an op on the legacy default stream depends on the
    tails of all blocking user streams; an op on a blocking user stream
    depends on the last default-stream op; non-blocking streams take
    part in neither legacy edge; [cudaStreamWaitEvent] adds an edge to
    the event's marker op. *)

type flags = Blocking | Non_blocking

type stream = {
  sid : int;
  flags : flags;
  is_default : bool;
  mutable tail : op option;  (** last enqueued op (FIFO predecessor) *)
  mutable destroyed : bool;
  mutable wedged : string option;
      (** injected device wedge: work behind this stream never completes;
          the string names the fault origin for diagnostics *)
}

and op
(** A device operation; forced at most once, dependencies first. *)

type event = { eid : int; mutable recorded : op option }
(** A CUDA event: a marker placed on a stream by [event_record]. *)

(** Execution modes:
    - [Eager]: every operation executes at enqueue time; missing
      synchronization is only visible to the race detector.
    - [Deferred]: operations execute when forced by a synchronization,
      a blocking memory operation, or progress ticks — reading a buffer
      without proper synchronization then really observes stale data. *)
type mode = Eager | Deferred

(** Default-stream semantics (paper, Section VI-B): [Legacy] is the
    classic blocking default stream; [Per_thread] gives each host thread
    its own default stream with no legacy barriers
    ([nvcc --default-stream per-thread]). *)
type default_mode = Legacy | Per_thread

type phase = Pre | Post

(** Intercepted API calls, as delivered to tool hooks. For memory
    operations, [blocking] is whether the call really blocks the host
    and [modeled_sync] whether CuSan's (pessimistic) model treats it as
    a synchronization point — see {!Semantics}. *)
type api_event =
  | Stream_create of stream
  | Stream_destroy of stream
  | Kernel_launch of {
      kernel : Kernel.t;
      grid : int;
      args : Kir.Interp.value array;
      stream : stream;
    }
  | Memcpy of {
      dst : Memsim.Ptr.t;
      src : Memsim.Ptr.t;
      bytes : int;
      async : bool;
      stream : stream;
      blocking : bool;
      modeled_sync : bool;
    }
  | Memset of {
      dst : Memsim.Ptr.t;
      bytes : int;
      value : int;
      async : bool;
      stream : stream;
      blocking : bool;
      modeled_sync : bool;
    }
  | Device_sync
  | Stream_sync of stream
  | Stream_query of stream * bool  (** completion status; valid in [Post] *)
  | Event_record of { event : event; stream : stream }
  | Event_sync of event
  | Event_query of event * bool
  | Stream_wait_event of { stream : stream; event : event }
  | Malloc of { ptr : Memsim.Ptr.t; space : Memsim.Space.t; bytes : int }
  | Free of { ptr : Memsim.Ptr.t; async : bool; stream : stream option }
  | Host_func of { stream : stream; label : string }

type t

exception Stream_destroyed
exception Invalid_launch of string

val create : ?mode:mode -> ?default_stream_mode:default_mode -> unit -> t

(** {1 Interception} *)

val add_hook : t -> (phase -> api_event -> unit) -> unit
(** Register a tool callback; fired around every API call. *)

val fire : t -> phase -> api_event -> unit

(** {1 Streams} *)

val mode : t -> mode
val default_mode : t -> default_mode

val default_stream : t -> stream
(** The legacy default stream — or, in [Per_thread] mode, the current
    host thread's default stream (created on demand). *)

val set_thread_key : t -> int -> unit
(** Set by the harness when the scheduler resumes a different host
    thread, so per-thread default streams resolve correctly. *)

val streams : t -> stream list
(** Default stream(s) first, then user streams in creation order. *)

val stream_create : ?flags:flags -> t -> stream
val stream_synchronize : t -> stream -> unit

val stream_destroy : t -> stream -> unit
(** Completes outstanding work, then invalidates the stream. *)

val stream_query : t -> stream -> bool
(** Completion status. In deferred mode each query also performs one
    unit of device progress, so busy-wait loops terminate. *)

val device_synchronize : t -> unit

(** {1 Events} *)

val event_create : t -> event
val event_record : t -> event -> stream -> unit
val event_synchronize : t -> event -> unit
val event_query : t -> event -> bool
val stream_wait_event : t -> stream -> event -> unit

val event_elapsed_time : t -> event -> event -> float
(** Virtual milliseconds between the completion of two recorded events
    (forces both).
    @raise Invalid_argument when an event was never recorded. *)

(** {1 Work submission} *)

val launch :
  t ->
  Kernel.t ->
  grid:int ->
  args:Kir.Interp.value array ->
  ?stream:stream ->
  unit ->
  unit
(** Enqueue a kernel launch. Pointer arguments must be
    device-accessible.
    @raise Invalid_launch otherwise, or on a non-positive grid. *)

val launch_host_func : t -> stream -> ?label:string -> (unit -> unit) -> unit
(** [cudaLaunchHostFunc]: run a host callback as a stream operation. *)

val enqueue :
  t -> ?extra_deps:op list -> ?cost:float -> stream -> string -> (unit -> unit) -> op
(** Low-level: enqueue a raw operation with the stream's FIFO and legacy
    edges. [cost] is the virtual device time charged on execution. *)

val force : op -> unit
(** Execute an op (dependencies first); idempotent.
    @raise Wedged when the op (or a dependency) sits behind a wedged
    stream. *)

exception Wedged of string
(** Forcing work behind a wedged stream. Sync points convert this into
    a sticky [Launch_timeout] (see {!surface_wedge}); asynchronous paths
    swallow it — a wedged stream fails nothing until you wait on it. *)

val wedge_stream : stream -> origin:string -> unit
(** Make the stream permanently unresponsive ([:wedge] fault action):
    no op behind it ever completes; [stream_query] stays [false]
    forever (busy-wait loops are then caught by the scheduler
    watchdog); synchronization calls fail with sticky
    [Launch_timeout]. First wedge wins. *)

val surface_wedge : t -> string -> (unit -> 'a) -> 'a
(** Run a forcing computation at a synchronization point: {!Wedged}
    becomes a sticky [Error.Launch_timeout] raised as
    [Error.Cuda_failure], naming the wedge origin. *)

val force_all_of : t -> unit

val tick : t -> bool
(** One unit of asynchronous device progress: execute the oldest pending
    op. Returns [false] when nothing was pending. *)

(** {1 Errors}

    See {!Error} for the severity model. With no faults (injected or
    otherwise) all of these are inert: queries return
    [Error.Success] and {!surface} is a no-op. *)

val get_last_error : t -> Error.code
(** [cudaGetLastError]: return and clear the last error. Sticky errors
    are returned but never cleared. *)

val peek_at_last_error : t -> Error.code
(** [cudaPeekAtLastError]: return without clearing. *)

val record_error : t -> Error.code -> unit
(** Record a synchronous failure (sticky codes corrupt the context). *)

val post_async_error : t -> Error.code -> string -> unit
(** Queue a deferred asynchronous error; it surfaces (raises
    {!Error.Cuda_failure}) at the next synchronization point. *)

val surface : t -> string -> unit
(** Surface pending deferred errors and re-raise a sticky error, as a
    synchronization point does. [ctx] names the calling API. *)

(** {1 Accounting} *)

val timing : t -> float * float
(** [(real CPU seconds spent in op bodies, virtual device seconds)] —
    see {!Costmodel} and the harness's runtime measurement model. *)
