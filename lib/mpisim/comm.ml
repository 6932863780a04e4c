(* Communicator state: pending message queues with MPI's non-overtaking
   matching order, posted receives, and round-based collectives. All
   matching is driven by the receiving side via [progress].

   Hard-failure model (ULFM subset): a rank killed by a [Crash] fault is
   marked dead on every communicator it belongs to. Operations that
   would need the dead peer raise [Proc_failed] (MPI_ERR_PROC_FAILED);
   posted receives from it become complete-with-error so MPI_Wait never
   hangs on them. [revoke]/[shrink]/[agree] implement the minimal
   recovery API: revoke interrupts blocked peers, shrink builds a fresh
   communicator over the survivors, agree is a fault-tolerant AND. *)

let any_source = -1
let any_tag = -1

type message = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_data : Bytes.t; (* eager snapshot taken at the send call *)
  m_seq : int; (* arrival order, for FIFO matching *)
  mutable m_delivered : bool; (* set at match; MPI_Ssend waits on this *)
  mutable m_delay : int;
      (* injected transport delay: invisible to matching until [progress]
         has decremented it to zero, so later messages can overtake it *)
}

type posted_recv = {
  r_req : Request.t;
  r_src : int; (* may be [any_source] *)
  r_tag : int; (* may be [any_tag] *)
  p_seq : int; (* post order *)
  mutable r_matched : bool;
}

(* MPI error handling, per communicator (MPI_Comm_set_errhandler):
   [Errors_are_fatal] is MPI's default — any error aborts the job;
   [Errors_return] hands the application an error class and lets it
   continue. [last_errcode] mirrors MPI's per-rank last error. *)
type errhandler = Errors_are_fatal | Errors_return

type errcode =
  | Err_success (* MPI_SUCCESS *)
  | Err_truncate (* MPI_ERR_TRUNCATE *)
  | Err_rank (* MPI_ERR_RANK *)
  | Err_range (* MPI_ERR_RANGE: RMA target out of window bounds *)
  | Err_win (* MPI_ERR_WIN *)
  | Err_other (* MPI_ERR_OTHER: e.g. injected transport faults *)
  | Err_proc_failed (* MPI_ERR_PROC_FAILED: a peer the op needs is dead *)
  | Err_revoked (* MPI_ERR_REVOKED: the communicator was revoked *)

let errcode_to_string = function
  | Err_success -> "MPI_SUCCESS"
  | Err_truncate -> "MPI_ERR_TRUNCATE"
  | Err_rank -> "MPI_ERR_RANK"
  | Err_range -> "MPI_ERR_RANGE"
  | Err_win -> "MPI_ERR_WIN"
  | Err_other -> "MPI_ERR_OTHER"
  | Err_proc_failed -> "MPI_ERR_PROC_FAILED"
  | Err_revoked -> "MPI_ERR_REVOKED"

(* One-shot transport fault armed by the injection layer just before a
   send deposits its message. *)
type xfault = Xdrop | Xdelay of int

(* [round] carries the sub-communicator a shrink round creates, so the
   two types are mutually recursive. *)
type round = {
  mutable contrib : int;
  mutable readers : int;
  mutable vals : float array;
  mutable ivals : int array;
  mutable ptrs : Memsim.Ptr.t option array; (* for window creation *)
  mutable done_ : bool;
  mutable resilient : bool;
      (* an ignore_failures round completes at live_count, and
         [mark_dead] re-checks it when the live count shrinks *)
  mutable sub : t option; (* shrink result, built by the first arrival *)
}

and t = {
  size : int;
  mutable msgs : message list; (* reverse arrival order *)
  mutable recvs : posted_recv list; (* reverse post order *)
  mutable next_seq : int;
  cond : Sched.Scheduler.cond;
  rounds : (int, round) Hashtbl.t;
  coll_seq : int array; (* per-rank collective sequence number *)
  recovery_rounds : (int, round) Hashtbl.t;
  recovery_seq : int array;
      (* The ULFM recovery collectives (shrink/agree/fault-tolerant
         finalize) run in their own sequence space: after a failure,
         ranks abandon regular collectives at different points (an
         entry raise never claims a sequence number, a wait raise
         already has), so the regular counters diverge and stale rounds
         keep partial contributions. Recovery operations are the only
         collectives that must still line up afterwards. *)
  mutable truncations : int;
  mutable errhandler : errhandler;
  last_errcode : errcode array; (* per rank *)
  dead : bool array; (* failure detector: ranks known to have crashed *)
  mutable revoked : bool;
  mutable parent_ranks : int array;
      (* world rank of each local rank; identity for the world comm.
         Failure notices arrive as world ranks and are translated. *)
  mutable children : t list;
      (* communicators shrunk from this one: failure notices cascade *)
  mutable xport : xfault option; (* pending one-shot transport fault *)
  mutable drops : int; (* messages lost to injected Drop actions *)
}

exception Truncation of string
exception Invalid_rank of int

exception Proc_failed of int
(* The operation needs rank [r] (local numbering) and it is dead. *)

exception Revoked
(* The communicator was revoked; all non-recovery operations fail. *)

let create size =
  {
    size;
    msgs = [];
    recvs = [];
    next_seq = 0;
    cond = Sched.Scheduler.cond "mpi";
    rounds = Hashtbl.create 8;
    coll_seq = Array.make size 0;
    recovery_rounds = Hashtbl.create 4;
    recovery_seq = Array.make size 0;
    truncations = 0;
    errhandler = Errors_are_fatal;
    last_errcode = Array.make size Err_success;
    dead = Array.make size false;
    revoked = false;
    parent_ranks = Array.init size Fun.id;
    children = [];
    xport = None;
    drops = 0;
  }

let check_rank t r = if r < 0 || r >= t.size then raise (Invalid_rank r)

(* --- failure detector ------------------------------------------------- *)

let is_dead t r = t.dead.(r)
let any_dead t = Array.exists Fun.id t.dead

let first_dead t =
  let rec go i = if t.dead.(i) then i else go (i + 1) in
  go 0

let live_ranks t =
  List.filter (fun r -> not t.dead.(r)) (List.init t.size Fun.id)

let live_count t =
  Array.fold_left (fun n d -> if d then n else n + 1) 0 t.dead

let failed_ranks t =
  List.filter (fun r -> t.dead.(r)) (List.init t.size Fun.id)

let world_rank t r = t.parent_ranks.(r)

(* Any pending message (delayed ones included — they will become
   matchable) that could complete this posted receive? *)
let has_matching_msg t (pr : posted_recv) =
  List.exists
    (fun m ->
      m.m_dst = pr.r_req.Request.owner
      && (pr.r_src = any_source || pr.r_src = m.m_src)
      && (pr.r_tag = any_tag || pr.r_tag = m.m_tag))
    t.msgs

(* Could any live rank still produce a message for this receive? For a
   directed receive that is just "is the source alive"; a wildcard
   receive stays pending while any peer of the owner lives. *)
let sender_may_exist t (pr : posted_recv) =
  if pr.r_src <> any_source then not t.dead.(pr.r_src)
  else
    List.exists
      (fun r -> r <> pr.r_req.Request.owner && not t.dead.(r))
      (List.init t.size Fun.id)

let fail_recv (pr : posted_recv) why =
  pr.r_matched <- true;
  pr.r_req.Request.error <- Some why;
  pr.r_req.Request.complete <- true

(* Turn posted receives that can never complete (source dead, nothing
   in flight) into complete-with-error requests, so MPI_Wait{,all}
   returns instead of hanging — the request-completion invariant the
   hard-failure model guarantees. *)
let sweep_failed_recvs t =
  List.iter
    (fun pr ->
      if
        (not pr.r_matched)
        && (not (sender_may_exist t pr))
        && not (has_matching_msg t pr)
      then
        fail_recv pr
          (Fmt.str "MPI_ERR_PROC_FAILED: source rank %s died with no message in flight"
             (if pr.r_src = any_source then "(all peers)"
              else string_of_int pr.r_src)))
    t.recvs;
  t.recvs <- List.filter (fun p -> not p.r_matched) t.recvs

let local_of_world t wr =
  let rec go i =
    if i >= t.size then None
    else if t.parent_ranks.(i) = wr then Some i
    else go (i + 1)
  in
  go 0

(* Propagate a crash: mark the rank dead here and on every derived
   communicator, fail now-orphaned receives, complete resilient rounds
   that were only waiting on the dead, and wake all blocked peers so
   their wait predicates re-run and raise [Proc_failed]. *)
let rec mark_dead t ~world_rank =
  (match local_of_world t world_rank with
  | Some lr when not t.dead.(lr) ->
      t.dead.(lr) <- true;
      sweep_failed_recvs t;
      (* Only recovery rounds complete at live_count; regular rounds
         waiting on the dead are aborted by their wait predicates. *)
      Hashtbl.iter
        (fun _ r ->
          if r.resilient && (not r.done_) && r.contrib >= live_count t then
            r.done_ <- true)
        t.recovery_rounds;
      Sched.Scheduler.signal t.cond
  | _ -> ());
  List.iter (fun c -> mark_dead c ~world_rank) t.children

(* --- point-to-point ---------------------------------------------------- *)

let set_transport_fault t f = t.xport <- f

let deposit t ~src ~dst ~tag ~data =
  if t.revoked then raise Revoked;
  check_rank t src;
  check_rank t dst;
  if t.dead.(dst) then raise (Proc_failed dst);
  let fault = t.xport in
  t.xport <- None;
  let delay = match fault with Some (Xdelay n) -> n | _ -> 0 in
  let m =
    {
      m_src = src;
      m_dst = dst;
      m_tag = tag;
      m_data = data;
      m_seq = t.next_seq;
      m_delivered = false;
      m_delay = delay;
    }
  in
  t.next_seq <- t.next_seq + 1;
  (match fault with
  | Some Xdrop ->
      (* The message is lost in transit: it never enters the pending
         queue, so no receive can ever match it. An Ssend waiting on
         [m_delivered] is caught by the deadlock detector / watchdog. *)
      t.drops <- t.drops + 1
  | _ ->
      t.msgs <- m :: t.msgs;
      Sched.Scheduler.signal t.cond);
  m

let post_recv t req ~src ~tag =
  if t.revoked then raise Revoked;
  if src <> any_source then check_rank t src;
  let pr = { r_req = req; r_src = src; r_tag = tag; p_seq = t.next_seq; r_matched = false } in
  t.next_seq <- t.next_seq + 1;
  t.recvs <- pr :: t.recvs;
  (* Receiving from an already-dead peer with nothing in flight fails
     immediately (complete-with-error), not at the wait. *)
  if any_dead t then sweep_failed_recvs t;
  pr

let matches (pr : posted_recv) (m : message) =
  m.m_delay = 0
  && m.m_dst = pr.r_req.Request.owner
  && (pr.r_src = any_source || pr.r_src = m.m_src)
  && (pr.r_tag = any_tag || pr.r_tag = m.m_tag)

(* Deliver [m] into the posted receive's buffer: the simulated RDMA
   transfer — raw bytes, invisible to the sanitizer's load/store
   instrumentation, exactly the visibility gap MUST's annotations must
   close (paper, Section II-B). *)
let deliver t (pr : posted_recv) (m : message) =
  let cap = Request.bytes pr.r_req in
  let len = Bytes.length m.m_data in
  if len > cap then begin
    t.truncations <- t.truncations + 1;
    raise
      (Truncation
         (Fmt.str "message of %d bytes into %d-byte receive (%a)" len cap
            Request.pp pr.r_req))
  end;
  Memsim.Access.raw_write_bytes pr.r_req.Request.buf m.m_data;
  m.m_delivered <- true;
  pr.r_matched <- true;
  pr.r_req.Request.complete <- true

(* Match posted receives (in post order) against pending messages (in
   arrival order) until a fixpoint. Each call first ages injected
   delays by one progress round; a delayed message is unmatchable until
   its delay reaches zero, so later messages overtake it. *)
let progress t =
  List.iter (fun m -> if m.m_delay > 0 then m.m_delay <- m.m_delay - 1) t.msgs;
  let again = ref true in
  while !again do
    again := false;
    let recvs_in_order = List.rev t.recvs in
    let msgs_in_order = List.rev t.msgs in
    match
      List.find_map
        (fun pr ->
          if pr.r_matched then None
          else
            match List.find_opt (fun m -> matches pr m) msgs_in_order with
            | Some m -> Some (pr, m)
            | None -> None)
        recvs_in_order
    with
    | Some (pr, m) ->
        deliver t pr m;
        t.msgs <- List.filter (fun m' -> m'.m_seq <> m.m_seq) t.msgs;
        t.recvs <- List.filter (fun p -> not p.r_matched) t.recvs;
        again := true;
        Sched.Scheduler.signal t.cond
    | None -> ()
  done;
  (* Failure poll: a receive can become orphaned *after* the mark_dead
     sweep (e.g. an earlier receive won the only in-flight message from
     the now-dead source). Every wait path drives progress, so checking
     here upholds the complete-with-error invariant. *)
  if any_dead t then sweep_failed_recvs t

(* --- collectives ------------------------------------------------------- *)

let round_of ?(recovery = false) t rank =
  let seqs = if recovery then t.recovery_seq else t.coll_seq in
  let table = if recovery then t.recovery_rounds else t.rounds in
  let seq = seqs.(rank) in
  seqs.(rank) <- seq + 1;
  let r =
    match Hashtbl.find_opt table seq with
    | Some r -> r
    | None ->
        let r =
          {
            contrib = 0;
            readers = 0;
            vals = [||];
            ivals = [||];
            ptrs = Array.make t.size None;
            done_ = false;
            resilient = false;
            sub = None;
          }
        in
        Hashtbl.replace table seq r;
        r
  in
  (seq, r)

(* Generic collective skeleton: every rank contributes, the last arrival
   completes the round, then every rank extracts the result. [label]
   names the MPI call in deadlock/watchdog diagnostics.

   With [ignore_failures] (the ULFM recovery operations and the
   shutdown barrier) the round completes once every *live* rank has
   contributed, and a revoked flag does not abort it — otherwise
   recovery itself could never run. A regular collective on a
   communicator with a known-dead member raises [Proc_failed], at entry
   or from the wait predicate when the death happens mid-round. *)
let collective ?(label = "MPI collective") ?(ignore_failures = false) t rank
    ~contribute ~extract =
  if not ignore_failures then begin
    if t.revoked then raise Revoked;
    if any_dead t then raise (Proc_failed (first_dead t))
  end;
  let seq, r = round_of ~recovery:ignore_failures t rank in
  if ignore_failures then r.resilient <- true;
  contribute r;
  r.contrib <- r.contrib + 1;
  let needed = if ignore_failures then live_count t else t.size in
  if r.contrib >= needed then begin
    r.done_ <- true;
    Sched.Scheduler.signal t.cond
  end
  else
    Sched.Scheduler.wait_until
      ~reason:(label ^ " (collective, waiting for peers)")
      t.cond
      (fun () ->
        if not ignore_failures then begin
          if t.revoked then raise Revoked;
          if any_dead t then raise (Proc_failed (first_dead t))
        end;
        r.done_);
  let v = extract r in
  r.readers <- r.readers + 1;
  if r.readers >= (if r.resilient then live_count t else t.size) then
    Hashtbl.remove (if ignore_failures then t.recovery_rounds else t.rounds) seq;
  v

(* --- ULFM-style recovery ----------------------------------------------- *)

(* MPIX_Comm_revoke: mark the communicator unusable and wake everyone
   blocked on it; their wait predicates raise [Revoked]. Idempotent and
   deliberately not itself a collective — any rank may revoke. *)
let revoke t =
  if not t.revoked then begin
    t.revoked <- true;
    Sched.Scheduler.signal t.cond
  end

(* MPIX_Comm_shrink: a fault-tolerant collective over the survivors that
   builds a fresh communicator containing exactly the live ranks. The
   first arrival snapshots the live set and creates the child; every
   survivor extracts it and derives its new rank from its position in
   the snapshot. The child inherits the error handler (recovery code
   keeps its error regime) and is registered for failure cascade. *)
let shrink t rank =
  let sub =
    collective ~label:"MPIX_Comm_shrink" ~ignore_failures:true t rank
      ~contribute:(fun r ->
        if r.sub = None then begin
          let live = Array.of_list (live_ranks t) in
          let c = create (Array.length live) in
          c.errhandler <- t.errhandler;
          c.parent_ranks <- Array.map (fun lr -> t.parent_ranks.(lr)) live;
          t.children <- c :: t.children;
          r.sub <- Some c
        end)
      ~extract:(fun r ->
        match r.sub with
        | Some c -> c
        | None -> invalid_arg "shrink: round completed without a child comm")
  in
  match local_of_world sub (world_rank t rank) with
  | Some new_rank -> (sub, new_rank)
  | None -> raise (Proc_failed rank) (* a dead rank cannot shrink *)

(* MPIX_Comm_agree: fault-tolerant agreement — bitwise AND of the live
   ranks' contributions. Completes despite failures and despite the
   communicator being revoked, like the real ULFM operation. *)
let agree t rank v =
  collective ~label:"MPIX_Comm_agree" ~ignore_failures:true t rank
    ~contribute:(fun r ->
      if Array.length r.ivals = 0 then r.ivals <- [| v |]
      else r.ivals.(0) <- r.ivals.(0) land v)
    ~extract:(fun r -> r.ivals.(0))
