(** The synchronization-semantics matrix of CUDA memory operations
    (paper, Sections III-B2 and III-C, per the CUDA 11.5 docs).

    Two views exist on purpose:
    - [actual_*]: what the simulated device really does — does the API
      call block the host until the operation completed?
    - [modeled_*]: what CuSan assumes for race detection. Where the
      documentation says "may be synchronous", CuSan is pessimistic and
      assumes it is {e not} synchronizing, so latent races are reported
      even when current hardware happens to serialize them. *)

val actual_memcpy_blocks :
  src:Memsim.Space.t -> dst:Memsim.Space.t -> async:bool -> bool
(** The synchronous variant blocks except for device-to-device copies;
    the async variant blocks when pageable host memory is involved (it
    stages through an internal pinned buffer — a classic hidden
    behaviour). *)

val modeled_memcpy_syncs :
  src:Memsim.Space.t -> dst:Memsim.Space.t -> async:bool -> bool
(** Only the non-async variant with host memory involved counts as a
    synchronization point in the race-detection model. *)

val actual_memset_blocks : dst:Memsim.Space.t -> async:bool -> bool
(** [cudaMemset] is asynchronous w.r.t. the host except on a pinned-host
    destination (non-async variant only). *)

val modeled_memset_syncs : dst:Memsim.Space.t -> async:bool -> bool

val free_syncs_device : async:bool -> bool
(** [cudaFree] synchronizes the whole device; [cudaFreeAsync] does not. *)
