(** The CUDA memory-management API of the simulator.

    Allocation sites go through TypeART's instrumented allocator
    (Section IV-C of the paper), so the runtime can later answer extent
    queries for device pointers. Copy/set operations are enqueued as
    device operations with host-synchronicity decided by {!Semantics};
    all of them notify tool hooks like intercepted CUDA API calls. *)

(** {1 Allocation} *)

val cuda_malloc :
  ?tag:string -> Device.t -> ty:Typeart.Typedb.ty -> count:int -> Memsim.Ptr.t
(** Device memory ([cudaMalloc]). *)

val cuda_malloc_managed :
  ?tag:string -> Device.t -> ty:Typeart.Typedb.ty -> count:int -> Memsim.Ptr.t
(** Managed memory ([cudaMallocManaged]): host- and device-accessible,
    but operations on it still require explicit synchronization. *)

val cuda_host_alloc :
  ?tag:string -> Device.t -> ty:Typeart.Typedb.ty -> count:int -> Memsim.Ptr.t
(** Pinned (page-locked) host memory ([cudaHostAlloc]). *)

val host_malloc :
  ?tag:string -> ty:Typeart.Typedb.ty -> count:int -> unit -> Memsim.Ptr.t
(** Plain pageable host memory ([malloc]); still tracked by TypeART. *)

(** Variants without the device hook notification (used internally). *)

val malloc :
  ?tag:string -> Device.t -> ty:Typeart.Typedb.ty -> count:int -> Memsim.Ptr.t

(** {1 Transfers} *)

val memcpy :
  Device.t ->
  dst:Memsim.Ptr.t ->
  src:Memsim.Ptr.t ->
  bytes:int ->
  ?async:bool ->
  ?stream:Device.stream ->
  unit ->
  unit
(** [cudaMemcpy] / [cudaMemcpyAsync]. Runs on the default stream unless
    [stream] is given; blocks the host per {!Semantics}. *)

val memset :
  Device.t ->
  dst:Memsim.Ptr.t ->
  bytes:int ->
  value:int ->
  ?async:bool ->
  ?stream:Device.stream ->
  unit ->
  unit

(** {1 Release} *)

val free : Device.t -> Memsim.Ptr.t -> unit
(** [cudaFree]: synchronizes the whole device before releasing (paper,
    Section III-B2). *)

val free_async : Device.t -> Device.stream -> Memsim.Ptr.t -> unit
(** [cudaFreeAsync]: releases as a stream-ordered operation. *)
