(** Communicator state: pending message queues with MPI's non-overtaking
    matching order, posted receives, and round-based collectives.
    Matching is driven by the receiving side via {!progress}.

    Hard-failure model (ULFM subset): a crashed rank is {!mark_dead}ed
    on every communicator it belongs to. Operations that need the dead
    peer raise {!Proc_failed} ([MPI_ERR_PROC_FAILED]); posted receives
    from it become complete-with-error so a wait never hangs on them.
    {!revoke}/{!shrink}/{!agree} form the minimal recovery API. *)

val any_source : int
val any_tag : int

type message = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_data : Bytes.t;  (** eager snapshot taken at the send call *)
  m_seq : int;  (** arrival order, for FIFO matching *)
  mutable m_delivered : bool;  (** set at match; MPI_Ssend waits on this *)
  mutable m_delay : int;
      (** injected transport delay: unmatchable until {!progress} has
          decremented it to zero, so later messages can overtake it *)
}

type posted_recv = {
  r_req : Request.t;
  r_src : int;  (** may be {!any_source} *)
  r_tag : int;  (** may be {!any_tag} *)
  p_seq : int;  (** post order *)
  mutable r_matched : bool;
}

(** MPI error handling, per communicator ([MPI_Comm_set_errhandler]):
    [Errors_are_fatal] is MPI's default — any error aborts the job;
    [Errors_return] hands the application an error class and lets it
    continue. *)
type errhandler = Errors_are_fatal | Errors_return

type errcode =
  | Err_success  (** MPI_SUCCESS *)
  | Err_truncate  (** MPI_ERR_TRUNCATE *)
  | Err_rank  (** MPI_ERR_RANK *)
  | Err_range  (** MPI_ERR_RANGE: RMA target out of window bounds *)
  | Err_win  (** MPI_ERR_WIN *)
  | Err_other  (** MPI_ERR_OTHER: e.g. injected transport faults *)
  | Err_proc_failed  (** MPI_ERR_PROC_FAILED: a needed peer is dead *)
  | Err_revoked  (** MPI_ERR_REVOKED: the communicator was revoked *)

val errcode_to_string : errcode -> string

(** One-shot transport fault armed just before a send deposits its
    message: the message is lost ([Xdrop]) or hidden from matching for
    N progress rounds ([Xdelay]). *)
type xfault = Xdrop | Xdelay of int

(** State of one collective round. [resilient] rounds (the ULFM
    recovery operations and the shutdown barrier) complete at the live
    count; [sub] carries the communicator a shrink round builds. *)
type round = {
  mutable contrib : int;  (** ranks that contributed so far *)
  mutable readers : int;  (** ranks that extracted the result *)
  mutable vals : float array;  (** float payload (reductions, gathers) *)
  mutable ivals : int array;
  mutable ptrs : Memsim.Ptr.t option array;  (** window creation payload *)
  mutable done_ : bool;
  mutable resilient : bool;
  mutable sub : t option;
}

and t = {
  size : int;
  mutable msgs : message list;
  mutable recvs : posted_recv list;
  mutable next_seq : int;
  cond : Sched.Scheduler.cond;  (** signalled on every matching event *)
  rounds : (int, round) Hashtbl.t;
  coll_seq : int array;  (** per-rank collective sequence number *)
  recovery_rounds : (int, round) Hashtbl.t;
  recovery_seq : int array;
      (** the ULFM recovery collectives run in their own sequence space:
          regular counters diverge once ranks abandon a failed
          collective at different points (entry vs. wait) *)
  mutable truncations : int;
  mutable errhandler : errhandler;
  last_errcode : errcode array;  (** per-rank last error *)
  dead : bool array;  (** failure detector: ranks known to have crashed *)
  mutable revoked : bool;
  mutable parent_ranks : int array;
      (** world rank of each local rank; identity for the world comm *)
  mutable children : t list;
      (** communicators shrunk from this one: failure notices cascade *)
  mutable xport : xfault option;  (** pending one-shot transport fault *)
  mutable drops : int;  (** messages lost to injected Drop actions *)
}

exception Truncation of string
(** A matched message exceeds the posted receive's capacity
    (MPI_ERR_TRUNCATE). *)

exception Invalid_rank of int

exception Proc_failed of int
(** The operation needs the given (local) rank and it is dead. *)

exception Revoked
(** The communicator was revoked; only {!shrink}/{!agree} still work. *)

val create : int -> t

(* --- failure detector --- *)

val is_dead : t -> int -> bool
val live_count : t -> int
val failed_ranks : t -> int list
(** Local ranks known to have crashed, ascending. *)

val world_rank : t -> int -> int
(** Translate a local rank to its world rank. *)

val mark_dead : t -> world_rank:int -> unit
(** Propagate a crash: mark the rank dead here and on every {!shrink}
    descendant, turn orphaned posted receives into complete-with-error
    requests, complete resilient rounds that were only waiting on the
    dead rank, and wake blocked peers so their wait predicates raise
    {!Proc_failed}. Idempotent. *)

(* --- point-to-point --- *)

val set_transport_fault : t -> xfault option -> unit
(** Arm a one-shot transport fault consumed by the next {!deposit}. *)

val deposit : t -> src:int -> dst:int -> tag:int -> data:Bytes.t -> message
(** Add a message to the pending queue and wake waiters. Raises
    {!Revoked} / {!Proc_failed} if the comm is revoked or [dst] dead.
    A pending [Xdrop] loses the message (it is returned but never
    queued); a pending [Xdelay n] hides it for [n] progress rounds. *)

val post_recv : t -> Request.t -> src:int -> tag:int -> posted_recv
(** Raises {!Revoked} on a revoked comm. A receive from an already-dead
    source with nothing in flight completes immediately with error. *)

val progress : t -> unit
(** Match posted receives (in post order) against pending messages (in
    arrival order) until a fixpoint, delivering payloads by raw copy
    (simulated RDMA — invisible to instrumented loads/stores). Each
    call first ages injected delays by one round. *)

(* --- collectives --- *)

val collective :
  ?label:string ->
  ?ignore_failures:bool ->
  t ->
  int ->
  contribute:(round -> unit) ->
  extract:(round -> 'a) ->
  'a
(** Generic collective skeleton: every rank contributes, the last
    arrival completes the round, then every rank extracts. [label]
    names the MPI call in deadlock/watchdog diagnostics.

    Default: raises {!Proc_failed} when any member is dead (at entry or
    mid-round) and {!Revoked} on a revoked comm. With [ignore_failures]
    (recovery operations, shutdown barrier) the round completes once
    every live rank contributed, revoked or not. *)

(* --- ULFM-style recovery --- *)

val revoke : t -> unit
(** [MPIX_Comm_revoke]: mark the communicator unusable and wake blocked
    peers; their waits raise {!Revoked}. Any rank may revoke; idempotent. *)

val shrink : t -> int -> t * int
(** [MPIX_Comm_shrink comm rank] is a fault-tolerant collective over
    the survivors returning [(new_comm, new_rank)] — a fresh
    communicator of exactly the live ranks (inheriting the error
    handler, registered for failure cascade) and the caller's rank in
    it. *)

val agree : t -> int -> int -> int
(** [MPIX_Comm_agree comm rank v]: fault-tolerant agreement — bitwise
    AND of the live ranks' contributions. Works on a revoked comm. *)
