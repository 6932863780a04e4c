(** The user-facing MPI API of the simulator.

    Ranks run as deterministic green threads; buffers are pointers into
    the simulated UVA address space, so device pointers are legal
    arguments everywhere — this is a CUDA-aware MPI (paper, Section
    III-D). Message payloads move as raw bytes (simulated RDMA),
    invisible to instrumented loads/stores: MUST's annotations close
    exactly that gap. *)

type ctx = { rank : int; size : int; comm : Comm.t }
(** Per-rank handle passed to the program ([MPI_COMM_WORLD] view). *)

val any_source : int
val any_tag : int

exception Abort of string

val run :
  ?watchdog:int ->
  ?picker:Sched.Scheduler.picker ->
  nranks:int ->
  (ctx -> unit) ->
  unit
(** Run one instance of the program per rank under the deterministic
    scheduler. [MPI_Init]/[MPI_Finalize] events fire around the program,
    and [MPI_Finalize] is collective. [watchdog] bounds scheduling steps
    and [picker] overrides the FIFO dispatch policy (see
    {!Sched.Scheduler.run}); the shutdown path is never subject to
    fault injection.
    @raise Sched.Scheduler.Deadlock when communication deadlocks.
    @raise Sched.Scheduler.Stalled when the watchdog budget expires. *)

(** {1 Error handling}

    Every MPI call probes the fault injector ({!Faultsim.Injector}) and
    routes simulation errors ([Comm.Truncation], [Comm.Invalid_rank],
    [Win.Target_out_of_bounds], [Win.Window_freed]) through the
    communicator's error handler. Under [Errors_are_fatal] (the MPI
    default) the error propagates — injected faults as {!Abort} with
    rank provenance. Under [Errors_return] the call records an error
    class for {!last_error} and returns a neutral value (failed
    [isend]/[irecv] return an already-complete request). *)

val comm_set_errhandler : ctx -> Comm.errhandler -> unit
(** [MPI_Comm_set_errhandler] on the world communicator. *)

val last_error : ctx -> Comm.errcode
(** The calling rank's last error class ([Err_success] if none). Error
    codes persist across successful calls, like [errno]. *)

val clear_error : ctx -> unit
(** Reset {!last_error} to [Err_success]; recovery loops call this
    before probing a fresh operation. *)

val error_string : Comm.errcode -> string
(** [MPI_Error_string]. *)

(** {1 Fault tolerance (ULFM subset)}

    A rank killed by an injected [Crash] is marked dead on all its
    communicators. Operations that need the dead peer fail with
    [MPI_ERR_PROC_FAILED] (exception [Comm.Proc_failed] under
    [Errors_are_fatal], error code under [Errors_return]); requests on
    it become complete-with-error so waits never hang. Recovery
    pattern: observe the error, {!comm_revoke} to interrupt peers,
    {!comm_shrink} to rebuild, optionally {!comm_agree} to agree on a
    restart point. *)

val failed_ranks : ctx -> int list
(** Ranks of this communicator known to have crashed, ascending
    ([MPIX_Comm_failure_ack]/[get_acked] collapsed into one query). *)

val comm_revoke : ctx -> unit
(** [MPIX_Comm_revoke]: mark the communicator unusable on all ranks and
    interrupt peers blocked on it (they get [MPI_ERR_REVOKED]). Any
    rank may call it; idempotent, not collective. *)

val comm_shrink : ctx -> ctx
(** [MPIX_Comm_shrink]: fault-tolerant collective over the survivors;
    returns a context on a fresh communicator containing exactly the
    live ranks, with this rank renumbered (rank 0 is the lowest
    surviving world rank). The new communicator inherits the error
    handler and receives subsequent failure notifications. *)

val comm_agree : ctx -> int -> int
(** [MPIX_Comm_agree]: fault-tolerant agreement — returns the bitwise
    AND of the live ranks' contributions. Works on a revoked
    communicator. *)

val pending_requests : ctx -> Request.t list
(** The rank's posted-but-unmatched receives, in post order — what a
    crashed rank was still waiting for. Used by harness post-mortems. *)

(** {1 Point-to-point}

    [count] is in elements of the datatype [dt]; tags are non-negative
    (or {!any_tag} for receives); matching is FIFO per (source, tag) —
    MPI's non-overtaking rule. *)

val send :
  ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> dst:int -> tag:int -> unit
(** Buffered (eager) send: the payload leaves the buffer immediately. *)

val ssend :
  ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> dst:int -> tag:int -> unit
(** Synchronous send: returns only once the receiver matched the message
    (rendezvous) — the variant whose misuse produces classic send-send
    deadlocks. *)

val recv :
  ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> src:int -> tag:int -> unit
(** Blocking receive; [count] is the capacity.
    @raise Comm.Truncation when the matched message is larger. *)

val isend :
  ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> dst:int -> tag:int ->
  Request.t

val irecv :
  ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> src:int -> tag:int ->
  Request.t

val wait : ctx -> Request.t -> unit
val waitall : ctx -> Request.t list -> unit

val test : ctx -> Request.t -> bool
(** Non-blocking completion check; also drives matching progress. *)

val sendrecv :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  sendcount:int ->
  dst:int ->
  sendtag:int ->
  recvbuf:Memsim.Ptr.t ->
  recvcount:int ->
  src:int ->
  recvtag:int ->
  dt:Datatype.t ->
  unit

(** {1 Collectives}

    All ranks of the communicator must call collectives in the same
    order. Reductions support f64, f32 and i32 datatypes. *)

type reduce_op = Sum | Prod | Min | Max

val barrier : ctx -> unit

val allreduce :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  recvbuf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  op:reduce_op ->
  unit

val reduce :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  recvbuf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  op:reduce_op ->
  root:int ->
  unit

val bcast : ctx -> buf:Memsim.Ptr.t -> count:int -> dt:Datatype.t -> root:int -> unit

val allgather :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  recvbuf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  unit
(** Every rank contributes [count] elements; [recvbuf] receives
    [size * count] elements ordered by rank. *)

val gather :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  recvbuf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  root:int ->
  unit

val scatter :
  ctx ->
  sendbuf:Memsim.Ptr.t ->
  recvbuf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  root:int ->
  unit
(** The root's [sendbuf] holds [size * count] elements; each rank
    receives its [count]-element slice. *)

(** {1 One-sided communication (RMA)}

    Active-target synchronization with fences: RMA operations are only
    valid inside an access epoch opened and closed by {!win_fence};
    target buffers must not be accessed locally while exposed, and
    origin buffers must not be reused before the closing fence. MUST's
    RMA extension detects violations of both rules. *)

val win_create : ctx -> buf:Memsim.Ptr.t -> bytes:int -> Win.t
(** Collective: every rank exposes [buf]. Handles are per-rank views of
    one window object. *)

val win_fence : ctx -> Win.t -> unit
(** Collective: completes all RMA of the closing epoch at origins and
    targets, and opens the next epoch. *)

val win_free : ctx -> Win.t -> unit

val put :
  ctx ->
  Win.t ->
  buf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  target:int ->
  disp:int ->
  unit
(** One-sided write into the target's window at element displacement
    [disp]. Raw transfer, invisible to load/store instrumentation. *)

val get :
  ctx ->
  Win.t ->
  buf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  target:int ->
  disp:int ->
  unit

val accumulate :
  ctx ->
  Win.t ->
  buf:Memsim.Ptr.t ->
  count:int ->
  dt:Datatype.t ->
  op:reduce_op ->
  target:int ->
  disp:int ->
  unit
(** Concurrent accumulates to the same location with the same op are
    legal per the MPI standard (modelled accordingly by MUST). *)
