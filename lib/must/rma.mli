(** MUST's RMA race detection (after Schwitanski et al., "On-the-Fly
    Data Race Detection for MPI RMA Programs with MUST", Correctness
    2022 — reference [42] of the CuSan paper), adapted to the fiber
    model.

    Each one-sided operation is concurrent with both the origin's and
    the target's host execution until the closing fence: its origin
    buffer access gets a fiber in the origin's detector, its window
    access a fiber in the {e target's} detector. Epoch bookkeeping
    respects the collective fence schedule: entering fence #n publishes
    the host state under the epoch-n key; an operation is stamped with
    its origin's fence count; leaving fence #m acquires exactly the
    completion keys of epochs < m and publishes the epoch-m key again;
    an epoch-m window access also acquires the target's still-pending
    completion keys of epochs < m, so it is ordered after the earlier
    operations fence #m completed. Accumulates to one target share a
    per-(window, epoch) fiber — atomic and mutually ordered per the MPI
    standard, but racing with everything else. *)

type t

val create : unit -> t

val reset_keys : unit -> unit
(** Reset the domain-local completion-key counter; called by the
    harness between independent runs. *)

val fences_entered : t -> wid:int -> int
(** The rank's current epoch number (fences entered so far). *)

val on_fence_enter : t -> Tsan.Detector.t -> wid:int -> unit
val on_fence_leave : t -> Tsan.Detector.t -> wid:int -> unit

val origin_access :
  t ->
  Tsan.Detector.t ->
  wid:int ->
  call:string ->
  buf:Memsim.Ptr.t ->
  bytes:int ->
  kind:[ `Read | `Write ] ->
  unit

val target_access :
  t ->
  Tsan.Detector.t ->
  wid:int ->
  epoch:int ->
  origin_rank:int ->
  call:string ->
  ptr:Memsim.Ptr.t ->
  bytes:int ->
  kind:[ `Read | `Write ] ->
  unit
(** [epoch] is the {e origin's} fence count at issue time. *)

val target_accumulate :
  t ->
  Tsan.Detector.t ->
  wid:int ->
  epoch:int ->
  call:string ->
  ptr:Memsim.Ptr.t ->
  bytes:int ->
  unit
