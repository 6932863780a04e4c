(* The user-facing MPI API of the simulator. Ranks run as deterministic
   green threads; buffers are pointers into the simulated UVA address
   space, so device pointers are legal arguments everywhere — this is a
   CUDA-aware MPI (paper, Section III-D). Message payloads move as raw
   bytes (simulated RDMA), invisible to instrumented loads/stores. *)

module H = Hooks
open Memsim

type ctx = { rank : int; size : int; comm : Comm.t }

let any_source = Comm.any_source
let any_tag = Comm.any_tag

exception Abort of string

(* --- error handling and fault injection --------------------------------- *)

let comm_set_errhandler ctx eh = ctx.comm.Comm.errhandler <- eh
let comm_get_errhandler ctx = ctx.comm.Comm.errhandler
let last_error ctx = ctx.comm.Comm.last_errcode.(ctx.rank)
let error_string = Comm.errcode_to_string

let set_errcode ctx code = ctx.comm.Comm.last_errcode.(ctx.rank) <- code

(* Error codes persist across successful calls (like errno); recovery
   loops clear explicitly before probing a fresh operation. *)
let clear_error ctx = set_errcode ctx Comm.Err_success

let errcode_of_exn = function
  | Comm.Truncation _ -> Comm.Err_truncate
  | Comm.Invalid_rank _ -> Comm.Err_rank
  | Comm.Proc_failed _ -> Comm.Err_proc_failed
  | Comm.Revoked -> Comm.Err_revoked
  | Win.Target_out_of_bounds _ -> Comm.Err_range
  | Win.Window_freed -> Comm.Err_win
  | _ -> Comm.Err_other

(* Every MPI entry point runs through [guard]: first the fault injector
   is probed for this call site, then simulation errors raised by the
   call body are routed through the communicator's error handler —
   [Errors_are_fatal] propagates (the MPI default: the job dies),
   [Errors_return] records the error class for [last_error] and returns
   [default ()]. [default] is a thunk so the error path allocates
   nothing (e.g. no Request ids) unless it is actually taken. Injected
   faults always carry rank provenance. *)
let injected_error ctx ~call =
  set_errcode ctx Comm.Err_other;
  match ctx.comm.Comm.errhandler with
  | Comm.Errors_return -> true
  | Comm.Errors_are_fatal ->
      raise (Abort (Fmt.str "rank %d: injected fault in %s" ctx.rank call))

let guard ctx ~site ~call ~default f =
  let injected_fail =
    (* Probes are attributed to *world* ranks: fault plans target the
       ranks the job started with, stable across comm shrinks. *)
    match
      Faultsim.Injector.probe ~site ~rank:(Comm.world_rank ctx.comm ctx.rank) ()
    with
    | None -> false
    | Some Faultsim.Plan.Hang ->
        Faultsim.Injector.hang ~site ();
        false
    | Some Faultsim.Plan.Abort ->
        raise (Abort (Fmt.str "rank %d: injected abort in %s" ctx.rank call))
    | Some Faultsim.Plan.Crash ->
        (* Terminal: unwinds the whole rank task; the supervisor in
           [run] marks the rank dead so peers observe the failure. *)
        Faultsim.Injector.crash ~site ();
        false
    | Some ((Faultsim.Plan.Drop | Faultsim.Plan.Delay _) as a)
      when site = Faultsim.Site.Mpi_send ->
        (* Transport faults apply to the message this send is about to
           deposit; the call itself succeeds, as on real hardware. *)
        Comm.set_transport_fault ctx.comm
          (Some
             (match a with
             | Faultsim.Plan.Drop -> Comm.Xdrop
             | Faultsim.Plan.Delay n -> Comm.Xdelay n
             | _ -> assert false));
        false
    | Some (Faultsim.Plan.Drop | Faultsim.Plan.Delay _ | Faultsim.Plan.Wedge) ->
        (* Outside their domain these degrade to a generic failure, as
           the plan grammar documents. *)
        injected_error ctx ~call
    | Some Faultsim.Plan.Fail -> injected_error ctx ~call
  in
  if injected_fail then default ()
  else
    try f ()
    with
    | ( Comm.Truncation _ | Comm.Invalid_rank _ | Comm.Proc_failed _
      | Comm.Revoked | Win.Target_out_of_bounds _ | Win.Window_freed ) as e
    -> (
      set_errcode ctx (errcode_of_exn e);
      match ctx.comm.Comm.errhandler with
      | Comm.Errors_return -> default ()
      | Comm.Errors_are_fatal -> raise e)

(* --- run --------------------------------------------------------------- *)

let run ?watchdog ?picker ~nranks f =
  if nranks <= 0 then invalid_arg "Mpi.run: nranks";
  let comm = Comm.create nranks in
  Sched.Scheduler.run ?watchdog ?picker
    (List.init nranks (fun rank ->
         ( Fmt.str "rank%d" rank,
           fun () ->
             let ctx = { rank; size = nranks; comm } in
             H.fire ~rank H.Pre H.Init;
             H.fire ~rank H.Post H.Init;
             match f ctx with
             | () ->
                 H.fire ~rank H.Pre H.Finalize;
                 (* Shutdown path: never subject to fault injection, so a
                    surviving rank's tools always get their finalize. It
                    tolerates failures: survivors must not wait for the
                    dead. *)
                 ignore
                   (Comm.collective ~label:"MPI_Finalize"
                      ~ignore_failures:true comm rank
                      ~contribute:(fun _ -> ())
                      ~extract:(fun _ -> ()));
                 H.fire ~rank H.Post H.Finalize
             | exception Faultsim.Injector.Rank_killed _ ->
                 (* Per-rank supervisor: the rank is dead. Propagate the
                    failure to every communicator (peers see
                    MPI_ERR_PROC_FAILED), skip its finalize, and end the
                    task normally so the survivors keep running. The
                    harness has already recorded the post-mortem on the
                    way through. *)
                 Comm.mark_dead comm ~world_rank:rank )))

(* --- point-to-point ----------------------------------------------------- *)

let send ctx ~buf ~count ~dt ~dst ~tag =
  guard ctx ~site:Faultsim.Site.Mpi_send
    ~call:(Fmt.str "MPI_Send(dst=%d, tag=%d)" dst tag)
    ~default:(fun () -> ()) (fun () ->
      let call = H.Send { buf; count; dt; dst; tag } in
      H.fire ~rank:ctx.rank H.Pre call;
      let data = Access.raw_read_bytes buf ~bytes:(count * dt.Datatype.size) in
      ignore (Comm.deposit ctx.comm ~src:ctx.rank ~dst ~tag ~data);
      H.fire ~rank:ctx.rank H.Post call)

(* Synchronous send: returns only once the receiver has matched the
   message (rendezvous protocol) — the variant whose misuse produces
   classic send-send deadlocks. *)
let ssend ctx ~buf ~count ~dt ~dst ~tag =
  guard ctx ~site:Faultsim.Site.Mpi_send
    ~call:(Fmt.str "MPI_Ssend(dst=%d, tag=%d)" dst tag)
    ~default:(fun () -> ()) (fun () ->
      let call = H.Ssend { buf; count; dt; dst; tag } in
      H.fire ~rank:ctx.rank H.Pre call;
      let data = Access.raw_read_bytes buf ~bytes:(count * dt.Datatype.size) in
      let m = Comm.deposit ctx.comm ~src:ctx.rank ~dst ~tag ~data in
      Sched.Scheduler.wait_until
        ~reason:(Fmt.str "MPI_Ssend(dst=%d, tag=%d)" dst tag)
        ctx.comm.Comm.cond
        (fun () ->
          (* Delivery is checked first: a message the receiver already
             matched counts even if the receiver has since died. *)
          m.Comm.m_delivered
          ||
          (if ctx.comm.Comm.revoked then raise Comm.Revoked;
           if Comm.is_dead ctx.comm dst then raise (Comm.Proc_failed dst);
           false));
      H.fire ~rank:ctx.rank H.Post call)

let dummy_request ~kind ~buf ~count ~dt ~peer ~tag ~owner =
  let req = Request.make ~kind ~buf ~count ~dt ~peer ~tag ~owner in
  req.Request.complete <- true;
  req

let isend ctx ~buf ~count ~dt ~dst ~tag =
  guard ctx ~site:Faultsim.Site.Mpi_send
    ~call:(Fmt.str "MPI_Isend(dst=%d, tag=%d)" dst tag)
    ~default:(fun () ->
      dummy_request ~kind:Request.Isend ~buf ~count ~dt ~peer:dst ~tag
        ~owner:ctx.rank)
    (fun () ->
      let req =
        Request.make ~kind:Request.Isend ~buf ~count ~dt ~peer:dst ~tag
          ~owner:ctx.rank
      in
      H.fire ~rank:ctx.rank H.Pre (H.Isend { req });
      (* Eager protocol: the payload leaves the buffer at the send call;
         the request completes at MPI_Wait. *)
      let data = Access.raw_read_bytes buf ~bytes:(count * dt.Datatype.size) in
      ignore (Comm.deposit ctx.comm ~src:ctx.rank ~dst ~tag ~data);
      H.fire ~rank:ctx.rank H.Post (H.Isend { req });
      req)

let irecv ctx ~buf ~count ~dt ~src ~tag =
  guard ctx ~site:Faultsim.Site.Mpi_recv
    ~call:(Fmt.str "MPI_Irecv(src=%d, tag=%d)" src tag)
    ~default:(fun () ->
      dummy_request ~kind:Request.Irecv ~buf ~count ~dt ~peer:src ~tag
        ~owner:ctx.rank)
    (fun () ->
      let req =
        Request.make ~kind:Request.Irecv ~buf ~count ~dt ~peer:src ~tag
          ~owner:ctx.rank
      in
      H.fire ~rank:ctx.rank H.Pre (H.Irecv { req });
      ignore (Comm.post_recv ctx.comm req ~src ~tag);
      Comm.progress ctx.comm;
      H.fire ~rank:ctx.rank H.Post (H.Irecv { req });
      req)

let wait_complete ?reason ctx (req : Request.t) =
  match req.Request.kind with
  | Request.Isend -> req.Request.complete <- true
  | Request.Irecv ->
      let reason =
        match reason with
        | Some r -> r
        | None ->
            Fmt.str "MPI_Wait(Irecv src=%d, tag=%d)" req.Request.peer
              req.Request.tag
      in
      Comm.progress ctx.comm;
      Sched.Scheduler.wait_until ~reason ctx.comm.Comm.cond (fun () ->
          if req.Request.complete then true
          else begin
            if ctx.comm.Comm.revoked then raise Comm.Revoked;
            Comm.progress ctx.comm;
            req.Request.complete
          end);
      (* A complete-with-error request (source died with nothing in
         flight) surfaces as MPI_ERR_PROC_FAILED at the wait — it never
         hangs. *)
      (match req.Request.error with
      | Some _ -> raise (Comm.Proc_failed (max 0 req.Request.peer))
      | None -> ())

let wait ctx req =
  guard ctx ~site:Faultsim.Site.Mpi_wait ~call:"MPI_Wait" ~default:(fun () -> ())
    (fun () ->
      H.fire ~rank:ctx.rank H.Pre (H.Wait { req });
      wait_complete ctx req;
      H.fire ~rank:ctx.rank H.Post (H.Wait { req }))

let waitall ctx reqs =
  guard ctx ~site:Faultsim.Site.Mpi_wait ~call:"MPI_Waitall" ~default:(fun () -> ())
    (fun () ->
      H.fire ~rank:ctx.rank H.Pre (H.Waitall { reqs });
      List.iter (wait_complete ctx) reqs;
      H.fire ~rank:ctx.rank H.Post (H.Waitall { reqs }))

let test ctx (req : Request.t) =
  guard ctx ~site:Faultsim.Site.Mpi_wait ~call:"MPI_Test" ~default:(fun () -> false)
    (fun () ->
      Comm.progress ctx.comm;
      if req.Request.kind = Request.Isend then req.Request.complete <- true;
      let completed = req.Request.complete in
      H.fire ~rank:ctx.rank H.Pre (H.Test { req; completed });
      H.fire ~rank:ctx.rank H.Post (H.Test { req; completed });
      (* An incomplete test yields: a test busy-loop then makes visible
         progress for the scheduler instead of monopolizing its task, so
         the watchdog can observe (and bound) the spinning. *)
      if not completed then Sched.Scheduler.yield ();
      completed)

let recv ctx ~buf ~count ~dt ~src ~tag =
  guard ctx ~site:Faultsim.Site.Mpi_recv
    ~call:(Fmt.str "MPI_Recv(src=%d, tag=%d)" src tag)
    ~default:(fun () -> ()) (fun () ->
      let call = H.Recv { buf; count; dt; src; tag } in
      H.fire ~rank:ctx.rank H.Pre call;
      let req =
        Request.make ~kind:Request.Irecv ~buf ~count ~dt ~peer:src ~tag
          ~owner:ctx.rank
      in
      ignore (Comm.post_recv ctx.comm req ~src ~tag);
      wait_complete ~reason:(Fmt.str "MPI_Recv(src=%d, tag=%d)" src tag) ctx
        req;
      H.fire ~rank:ctx.rank H.Post call)

let sendrecv ctx ~sendbuf ~sendcount ~dst ~sendtag ~recvbuf ~recvcount ~src
    ~recvtag ~dt =
  send ctx ~buf:sendbuf ~count:sendcount ~dt ~dst ~tag:sendtag;
  recv ctx ~buf:recvbuf ~count:recvcount ~dt ~src ~tag:recvtag

(* --- collectives -------------------------------------------------------- *)

type reduce_op = Sum | Prod | Min | Max

let apply_op op a b =
  match op with
  | Sum -> a +. b
  | Prod -> a *. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let read_elems (buf : Ptr.t) count (dt : Datatype.t) =
  match dt.Datatype.elem with
  | Typeart.Typedb.F64 -> Array.init count (Access.raw_get_f64 buf)
  | Typeart.Typedb.F32 -> Array.init count (Access.raw_get_f32 buf)
  | Typeart.Typedb.I32 ->
      Array.init count (fun i -> float_of_int (Access.raw_get_i32 buf i))
  | _ ->
      raise (Abort (Fmt.str "reduction on unsupported datatype %a" Datatype.pp dt))

let write_elems (buf : Ptr.t) (dt : Datatype.t) vals =
  match dt.Datatype.elem with
  | Typeart.Typedb.F64 -> Array.iteri (Access.raw_set_f64 buf) vals
  | Typeart.Typedb.F32 -> Array.iteri (Access.raw_set_f32 buf) vals
  | Typeart.Typedb.I32 ->
      Array.iteri (fun i v -> Access.raw_set_i32 buf i (int_of_float v)) vals
  | _ -> assert false

let barrier ctx =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Barrier"
    ~default:(fun () -> ())
    (fun () ->
      H.fire ~rank:ctx.rank H.Pre H.Barrier;
      Comm.collective ~label:"MPI_Barrier" ctx.comm ctx.rank
        ~contribute:(fun _ -> ())
        ~extract:(fun _ -> ());
      H.fire ~rank:ctx.rank H.Post H.Barrier)

let reduce_round ctx ~label ~op ~sendbuf ~count ~dt =
  Comm.collective ~label ctx.comm ctx.rank
    ~contribute:(fun r ->
      let mine = read_elems sendbuf count dt in
      if r.Comm.contrib = 0 then r.Comm.vals <- mine
      else
        Array.iteri (fun i v -> r.Comm.vals.(i) <- apply_op op r.Comm.vals.(i) v) mine)
    ~extract:(fun r -> r.Comm.vals)

let allreduce ctx ~sendbuf ~recvbuf ~count ~dt ~op =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Allreduce"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Allreduce { sendbuf; recvbuf; count; dt } in
      H.fire ~rank:ctx.rank H.Pre call;
      let vals =
        reduce_round ctx ~label:"MPI_Allreduce" ~op ~sendbuf ~count ~dt
      in
      write_elems recvbuf dt vals;
      H.fire ~rank:ctx.rank H.Post call)

let reduce ctx ~sendbuf ~recvbuf ~count ~dt ~op ~root =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Reduce"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Reduce { sendbuf; recvbuf; count; dt; root } in
      H.fire ~rank:ctx.rank H.Pre call;
      let vals = reduce_round ctx ~label:"MPI_Reduce" ~op ~sendbuf ~count ~dt in
      if ctx.rank = root then write_elems recvbuf dt vals;
      H.fire ~rank:ctx.rank H.Post call)

let allgather ctx ~sendbuf ~recvbuf ~count ~dt =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Allgather"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Allgather { sendbuf; recvbuf; count; dt } in
      H.fire ~rank:ctx.rank H.Pre call;
      let all =
        Comm.collective ~label:"MPI_Allgather" ctx.comm ctx.rank
          ~contribute:(fun r ->
            if Array.length r.Comm.vals = 0 then
              r.Comm.vals <- Array.make (ctx.size * count) 0.;
            let mine = read_elems sendbuf count dt in
            Array.blit mine 0 r.Comm.vals (ctx.rank * count) count)
          ~extract:(fun r -> r.Comm.vals)
      in
      write_elems recvbuf dt all;
      H.fire ~rank:ctx.rank H.Post call)

let gather ctx ~sendbuf ~recvbuf ~count ~dt ~root =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Gather"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Gather { sendbuf; recvbuf; count; dt; root } in
      H.fire ~rank:ctx.rank H.Pre call;
      let all =
        Comm.collective ~label:"MPI_Gather" ctx.comm ctx.rank
          ~contribute:(fun r ->
            if Array.length r.Comm.vals = 0 then
              r.Comm.vals <- Array.make (ctx.size * count) 0.;
            let mine = read_elems sendbuf count dt in
            Array.blit mine 0 r.Comm.vals (ctx.rank * count) count)
          ~extract:(fun r -> r.Comm.vals)
      in
      if ctx.rank = root then write_elems recvbuf dt all;
      H.fire ~rank:ctx.rank H.Post call)

let scatter ctx ~sendbuf ~recvbuf ~count ~dt ~root =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Scatter"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Scatter { sendbuf; recvbuf; count; dt; root } in
      H.fire ~rank:ctx.rank H.Pre call;
      let all =
        Comm.collective ~label:"MPI_Scatter" ctx.comm ctx.rank
          ~contribute:(fun r ->
            if ctx.rank = root then
              r.Comm.vals <- read_elems sendbuf (ctx.size * count) dt)
          ~extract:(fun r -> r.Comm.vals)
      in
      write_elems recvbuf dt (Array.sub all (ctx.rank * count) count);
      H.fire ~rank:ctx.rank H.Post call)

(* --- one-sided communication (RMA, fence synchronization) --------------- *)

(* Collective window creation: every rank exposes [buf] of [bytes];
   handles are per-rank (sharing wid, buffers and fence schedule), like
   MPI_Win handles referring to one window object. *)
let win_create ctx ~buf ~bytes =
  Ptr.check buf bytes;
  let buffers, sizes, wid =
    Comm.collective ~label:"MPI_Win_create" ctx.comm ctx.rank
      ~contribute:(fun r ->
        if Array.length r.Comm.ivals = 0 then begin
          r.Comm.ivals <- Array.make ctx.size 0;
          (* the first contributor draws the window id, so every rank's
             handle refers to the same window *)
          r.Comm.vals <- [| float_of_int (Win.fresh_wid ()) |]
        end;
        r.Comm.ptrs.(ctx.rank) <- Some buf;
        r.Comm.ivals.(ctx.rank) <- bytes)
      ~extract:(fun r ->
        ( Array.map Option.get r.Comm.ptrs,
          Array.copy r.Comm.ivals,
          int_of_float r.Comm.vals.(0) ))
  in
  let win = { Win.wid; buffers; sizes; epoch = 0; freed = false } in
  let call = H.Win_create { win; buf; bytes } in
  H.fire ~rank:ctx.rank H.Pre call;
  H.fire ~rank:ctx.rank H.Post call;
  win

(* Fence: closes the current access epoch and opens the next one. All
   RMA issued before the fence is complete (at origin and target) once
   it returns. *)
let win_fence ctx (win : Win.t) =
  guard ctx ~site:Faultsim.Site.Mpi_win ~call:"MPI_Win_fence"
    ~default:(fun () -> ())
    (fun () ->
      Win.check_live win;
      let call = H.Win_fence { win } in
      H.fire ~rank:ctx.rank H.Pre call;
      Comm.collective ~label:"MPI_Win_fence" ctx.comm ctx.rank
        ~contribute:(fun _ -> ())
        ~extract:(fun _ -> ());
      win.Win.epoch <- win.Win.epoch + 1;
      H.fire ~rank:ctx.rank H.Post call)

let win_free ctx (win : Win.t) =
  guard ctx ~site:Faultsim.Site.Mpi_win ~call:"MPI_Win_free"
    ~default:(fun () -> ())
    (fun () ->
      Win.check_live win;
      let call = H.Win_free { win } in
      H.fire ~rank:ctx.rank H.Pre call;
      Comm.collective ~label:"MPI_Win_free" ctx.comm ctx.rank
        ~contribute:(fun _ -> ())
        ~extract:(fun _ -> ());
      win.Win.freed <- true;
      H.fire ~rank:ctx.rank H.Post call)

(* MPI_Put: one-sided write of [count] elements into the target rank's
   window at element displacement [disp]. Data moves as raw bytes — the
   RDMA transfer no load/store instrumentation can see. *)
let put ctx (win : Win.t) ~buf ~count ~dt ~target ~disp =
  guard ctx ~site:Faultsim.Site.Mpi_win
    ~call:(Fmt.str "MPI_Put(target=%d)" target)
    ~default:(fun () -> ())
    (fun () ->
      let bytes = count * dt.Datatype.size in
      let disp_bytes = disp * dt.Datatype.size in
      Win.check_target win ~target ~disp_bytes ~bytes;
      Ptr.check buf bytes;
      let call = H.Rma_put { win; buf; count; dt; target; disp } in
      H.fire ~rank:ctx.rank H.Pre call;
      Access.raw_blit ~src:buf
        ~dst:(Win.target_ptr win ~target ~disp_bytes)
        ~bytes;
      H.fire ~rank:ctx.rank H.Post call)

(* MPI_Get: one-sided read from the target's window into [buf]. *)
let get ctx (win : Win.t) ~buf ~count ~dt ~target ~disp =
  guard ctx ~site:Faultsim.Site.Mpi_win
    ~call:(Fmt.str "MPI_Get(target=%d)" target)
    ~default:(fun () -> ())
    (fun () ->
      let bytes = count * dt.Datatype.size in
      let disp_bytes = disp * dt.Datatype.size in
      Win.check_target win ~target ~disp_bytes ~bytes;
      Ptr.check buf bytes;
      let call = H.Rma_get { win; buf; count; dt; target; disp } in
      H.fire ~rank:ctx.rank H.Pre call;
      Access.raw_blit
        ~src:(Win.target_ptr win ~target ~disp_bytes)
        ~dst:buf ~bytes;
      H.fire ~rank:ctx.rank H.Post call)

(* MPI_Accumulate with MPI_SUM-style ops: concurrent accumulates to the
   same location (same op) are legal per the MPI standard. *)
let accumulate ctx (win : Win.t) ~buf ~count ~dt ~op ~target ~disp =
  guard ctx ~site:Faultsim.Site.Mpi_win
    ~call:(Fmt.str "MPI_Accumulate(target=%d)" target)
    ~default:(fun () -> ())
    (fun () ->
      let bytes = count * dt.Datatype.size in
      let disp_bytes = disp * dt.Datatype.size in
      Win.check_target win ~target ~disp_bytes ~bytes;
      let call = H.Rma_accumulate { win; buf; count; dt; target; disp } in
      H.fire ~rank:ctx.rank H.Pre call;
      let dst = Win.target_ptr win ~target ~disp_bytes in
      let mine = read_elems buf count dt in
      let theirs = read_elems dst count dt in
      write_elems dst dt (Array.mapi (fun i v -> apply_op op v theirs.(i)) mine);
      H.fire ~rank:ctx.rank H.Post call)

let bcast ctx ~buf ~count ~dt ~root =
  guard ctx ~site:Faultsim.Site.Mpi_collective ~call:"MPI_Bcast"
    ~default:(fun () -> ())
    (fun () ->
      let call = H.Bcast { buf; count; dt; root } in
      H.fire ~rank:ctx.rank H.Pre call;
      let vals =
        Comm.collective ~label:"MPI_Bcast" ctx.comm ctx.rank
          ~contribute:(fun r ->
            if ctx.rank = root then r.Comm.vals <- read_elems buf count dt)
          ~extract:(fun r -> r.Comm.vals)
      in
      if ctx.rank <> root then write_elems buf dt vals;
      H.fire ~rank:ctx.rank H.Post call)

(* --- ULFM-style fault tolerance ----------------------------------------- *)

let failed_ranks ctx = Comm.failed_ranks ctx.comm

(* MPIX_Comm_revoke: interrupt every peer blocked on this communicator;
   their pending operations return MPI_ERR_REVOKED. The standard
   recovery opening move after observing MPI_ERR_PROC_FAILED. *)
let comm_revoke ctx = Comm.revoke ctx.comm

(* MPIX_Comm_shrink: returns a fresh context on a communicator of the
   survivors, with this rank renumbered. Rank 0 of the new comm is the
   lowest surviving world rank. *)
let comm_shrink ctx =
  let sub, new_rank = Comm.shrink ctx.comm ctx.rank in
  { rank = new_rank; size = sub.Comm.size; comm = sub }

(* MPIX_Comm_agree: fault-tolerant agreement (bitwise AND over live
   ranks); completes despite failures and revocation. *)
let comm_agree ctx v = Comm.agree ctx.comm ctx.rank v

(* --- post-mortem support ------------------------------------------------ *)

(* The rank's posted-but-unmatched receives — what a crashed rank was
   still waiting for. The harness renders these in its post-mortem. *)
let pending_requests ctx =
  List.filter_map
    (fun pr ->
      if (not pr.Comm.r_matched) && pr.Comm.r_req.Request.owner = ctx.rank then
        Some pr.Comm.r_req
      else None)
    (List.rev ctx.comm.Comm.recvs)
