(* The MUST runtime slice relevant to this reproduction (paper, Section
   II-B): intercept MPI calls and expose their memory-access and
   concurrency semantics to ThreadSanitizer.

   - Blocking calls annotate their buffer accesses on the host fiber
     (a send reads the buffer, a receive writes it).
   - Each non-blocking operation gets its own TSan fiber (Fig. 1): the
     buffer access is annotated on that fiber, which then releases a
     per-request key; the completion call (Wait/Waitall/successful
     Test) acquires it on the host.
   - With TypeART enabled, every communication buffer is checked
     against the declared MPI datatype and the allocation extent. *)

module T = Tsan.Detector
module H = Mpisim.Hooks

let req_key rid = 0x3_0000_0000 + rid

type t = {
  tsan : T.t;
  rank : int;
  size : int; (* communicator size, for collective buffer extents *)
  check_types : bool;
  host : T.fiber;
  rma : Rma.t; (* one-sided communication bookkeeping *)
  mutable errors : Errors.t list; (* reverse detection order *)
  mutable mpi_calls : int;
}

(* The distributed part of the RMA analysis: a Put's window access lands
   in the *target* rank's detector. The harness points this resolver at
   the per-rank MUST instances of the current run. *)
let peer_resolver : (int -> t option) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fun _ -> None)

let set_peer_resolver f = Domain.DLS.set peer_resolver f
let clear_peer_resolver () = Domain.DLS.set peer_resolver (fun _ -> None)
let resolve_peer rank = (Domain.DLS.get peer_resolver) rank

let create ?(size = 2) ~tsan ~rank ~check_types () =
  {
    tsan;
    rank;
    size;
    check_types;
    host = T.current_fiber tsan;
    rma = Rma.create ();
    errors = [];
    mpi_calls = 0;
  }

let errors t = List.rev t.errors
let mpi_calls t = t.mpi_calls

(* --- TypeART-backed datatype checks ----------------------------------- *)

let typecheck t ~call ~(buf : Memsim.Ptr.t) ~count ~(dt : Mpisim.Datatype.t) =
  if t.check_types && Typeart.Rt.enabled () then begin
    let addr = Memsim.Ptr.addr buf in
    match Typeart.Pass.lookup addr with
    | None ->
        t.errors <- { Errors.rank = t.rank; call; addr; kind = Errors.Unknown_allocation } :: t.errors
    | Some info ->
        if not (Typeart.Typedb.equal info.Typeart.Rt.ty dt.Mpisim.Datatype.elem)
        then
          t.errors <-
            {
              Errors.rank = t.rank;
              call;
              addr;
              kind =
                Errors.Type_mismatch
                  { expected = dt.Mpisim.Datatype.elem; actual = info.Typeart.Rt.ty };
            }
            :: t.errors;
        let have = info.Typeart.Rt.bytes - (addr - info.Typeart.Rt.base) in
        let need = count * dt.Mpisim.Datatype.size in
        if need > have then
          t.errors <-
            {
              Errors.rank = t.rank;
              call;
              addr;
              kind = Errors.Buffer_overflow { have_bytes = have; need_bytes = need };
            }
            :: t.errors
  end

(* --- TSan annotations --------------------------------------------------- *)

let host_access t ~call ~(buf : Memsim.Ptr.t) ~bytes ~kind =
  T.with_context t.tsan call (fun () ->
      match kind with
      | `Read -> T.read_range t.tsan ~addr:(Memsim.Ptr.addr buf) ~len:bytes
      | `Write -> T.write_range t.tsan ~addr:(Memsim.Ptr.addr buf) ~len:bytes)

(* Model a non-blocking operation's concurrent region with a fresh
   fiber. The calling fiber is saved and restored so the interception
   works from any host thread (MPI_THREAD_MULTIPLE-style usage). The
   fiber's last action is the release of its request key, so retiring
   it lets a later request reuse its clock slot once the completion
   call has acquired that key. *)
let fiber_access t ~call ~(req : Mpisim.Request.t) ~kind =
  let caller = T.current_fiber t.tsan in
  let f =
    T.fiber_spawn t.tsan ("mpi:req" ^ string_of_int req.Mpisim.Request.rid)
  in
  (if Trace.Recorder.on () then
     Trace.Recorder.instant ~cat:"must"
       ~args:
         [
           ("req", string_of_int req.Mpisim.Request.rid);
           ("bytes", string_of_int (Mpisim.Request.bytes req));
           ("kind", match kind with `Read -> "read" | `Write -> "write");
         ]
       ("annotate:" ^ call));
  T.with_context t.tsan call (fun () ->
      let addr = Memsim.Ptr.addr req.Mpisim.Request.buf in
      let len = Mpisim.Request.bytes req in
      match kind with
      | `Read -> T.read_range t.tsan ~addr ~len
      | `Write -> T.write_range t.tsan ~addr ~len);
  T.happens_before t.tsan (req_key req.Mpisim.Request.rid);
  T.switch_to_fiber t.tsan caller;
  T.fiber_retire t.tsan f

let complete t (req : Mpisim.Request.t) =
  T.happens_after t.tsan (req_key req.Mpisim.Request.rid)

(* --- the interception handler ------------------------------------------ *)

let on_call t phase (call : H.call) =
  (if phase = H.Pre && Trace.Recorder.on () then
     Trace.Recorder.instant ~cat:"must"
       ~args:[ ("rank", string_of_int t.rank) ]
       ("intercept:" ^ H.call_name call));
  match (phase, call) with
  | H.Pre, H.Send { buf; count; dt; _ } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Send" ~buf ~count ~dt;
      host_access t ~call:"MPI_Send" ~buf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Read
  | H.Pre, H.Ssend { buf; count; dt; _ } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Ssend" ~buf ~count ~dt;
      host_access t ~call:"MPI_Ssend" ~buf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Read
  | H.Pre, H.Recv { buf; count; dt; _ } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Recv" ~buf ~count ~dt;
      host_access t ~call:"MPI_Recv" ~buf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Write
  | H.Pre, H.Isend { req } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Isend" ~buf:req.Mpisim.Request.buf
        ~count:req.Mpisim.Request.count ~dt:req.Mpisim.Request.dt;
      fiber_access t ~call:"MPI_Isend" ~req ~kind:`Read
  | H.Pre, H.Irecv { req } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Irecv" ~buf:req.Mpisim.Request.buf
        ~count:req.Mpisim.Request.count ~dt:req.Mpisim.Request.dt;
      fiber_access t ~call:"MPI_Irecv" ~req ~kind:`Write
  | H.Post, H.Wait { req } ->
      t.mpi_calls <- t.mpi_calls + 1;
      complete t req
  | H.Post, H.Waitall { reqs } ->
      t.mpi_calls <- t.mpi_calls + 1;
      List.iter (complete t) reqs
  | H.Post, H.Test { req; completed = true } -> complete t req
  | H.Pre, H.Allreduce { sendbuf; recvbuf; count; dt } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Allreduce" ~buf:sendbuf ~count ~dt;
      typecheck t ~call:"MPI_Allreduce" ~buf:recvbuf ~count ~dt;
      let bytes = count * dt.Mpisim.Datatype.size in
      host_access t ~call:"MPI_Allreduce" ~buf:sendbuf ~bytes ~kind:`Read;
      host_access t ~call:"MPI_Allreduce" ~buf:recvbuf ~bytes ~kind:`Write
  | H.Pre, H.Reduce { sendbuf; recvbuf; count; dt; root } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Reduce" ~buf:sendbuf ~count ~dt;
      let bytes = count * dt.Mpisim.Datatype.size in
      host_access t ~call:"MPI_Reduce" ~buf:sendbuf ~bytes ~kind:`Read;
      if t.rank = root then
        host_access t ~call:"MPI_Reduce" ~buf:recvbuf ~bytes ~kind:`Write
  | H.Pre, H.Bcast { buf; count; dt; root } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Bcast" ~buf ~count ~dt;
      let bytes = count * dt.Mpisim.Datatype.size in
      if t.rank = root then host_access t ~call:"MPI_Bcast" ~buf ~bytes ~kind:`Read
      else host_access t ~call:"MPI_Bcast" ~buf ~bytes ~kind:`Write
  | H.Pre, H.Allgather { sendbuf; recvbuf; count; dt } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Allgather" ~buf:sendbuf ~count ~dt;
      typecheck t ~call:"MPI_Allgather" ~buf:recvbuf ~count:(t.size * count) ~dt;
      host_access t ~call:"MPI_Allgather" ~buf:sendbuf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Read;
      host_access t ~call:"MPI_Allgather" ~buf:recvbuf
        ~bytes:(t.size * count * dt.Mpisim.Datatype.size)
        ~kind:`Write
  | H.Pre, H.Gather { sendbuf; recvbuf; count; dt; root } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Gather" ~buf:sendbuf ~count ~dt;
      host_access t ~call:"MPI_Gather" ~buf:sendbuf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Read;
      if t.rank = root then begin
        typecheck t ~call:"MPI_Gather" ~buf:recvbuf ~count:(t.size * count) ~dt;
        host_access t ~call:"MPI_Gather" ~buf:recvbuf
          ~bytes:(t.size * count * dt.Mpisim.Datatype.size)
          ~kind:`Write
      end
  | H.Pre, H.Scatter { sendbuf; recvbuf; count; dt; root } ->
      t.mpi_calls <- t.mpi_calls + 1;
      if t.rank = root then begin
        typecheck t ~call:"MPI_Scatter" ~buf:sendbuf ~count:(t.size * count) ~dt;
        host_access t ~call:"MPI_Scatter" ~buf:sendbuf
          ~bytes:(t.size * count * dt.Mpisim.Datatype.size)
          ~kind:`Read
      end;
      typecheck t ~call:"MPI_Scatter" ~buf:recvbuf ~count ~dt;
      host_access t ~call:"MPI_Scatter" ~buf:recvbuf
        ~bytes:(count * dt.Mpisim.Datatype.size)
        ~kind:`Write
  | H.Pre, H.Barrier -> t.mpi_calls <- t.mpi_calls + 1
  | H.Pre, H.Win_fence { win } ->
      t.mpi_calls <- t.mpi_calls + 1;
      Rma.on_fence_enter t.rma t.tsan ~wid:win.Mpisim.Win.wid
  | H.Post, H.Win_fence { win } ->
      Rma.on_fence_leave t.rma t.tsan ~wid:win.Mpisim.Win.wid
  | H.Pre, H.Rma_put { win; buf; count; dt; target; disp } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Put" ~buf ~count ~dt;
      let wid = win.Mpisim.Win.wid in
      let bytes = count * dt.Mpisim.Datatype.size in
      Rma.origin_access t.rma t.tsan ~wid ~call:"MPI_Put" ~buf ~bytes
        ~kind:`Read;
      (match resolve_peer target with
      | Some mt ->
          Rma.target_access mt.rma mt.tsan ~wid
            ~epoch:(Rma.fences_entered t.rma ~wid) ~origin_rank:t.rank
            ~call:"MPI_Put"
            ~ptr:
              (Mpisim.Win.target_ptr win ~target
                 ~disp_bytes:(disp * dt.Mpisim.Datatype.size))
            ~bytes ~kind:`Write
      | None -> ())
  | H.Pre, H.Rma_get { win; buf; count; dt; target; disp } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Get" ~buf ~count ~dt;
      let wid = win.Mpisim.Win.wid in
      let bytes = count * dt.Mpisim.Datatype.size in
      Rma.origin_access t.rma t.tsan ~wid ~call:"MPI_Get" ~buf ~bytes
        ~kind:`Write;
      (match resolve_peer target with
      | Some mt ->
          Rma.target_access mt.rma mt.tsan ~wid
            ~epoch:(Rma.fences_entered t.rma ~wid) ~origin_rank:t.rank
            ~call:"MPI_Get"
            ~ptr:
              (Mpisim.Win.target_ptr win ~target
                 ~disp_bytes:(disp * dt.Mpisim.Datatype.size))
            ~bytes ~kind:`Read
      | None -> ())
  | H.Pre, H.Rma_accumulate { win; buf; count; dt; target; disp } ->
      t.mpi_calls <- t.mpi_calls + 1;
      typecheck t ~call:"MPI_Accumulate" ~buf ~count ~dt;
      let wid = win.Mpisim.Win.wid in
      let bytes = count * dt.Mpisim.Datatype.size in
      Rma.origin_access t.rma t.tsan ~wid ~call:"MPI_Accumulate" ~buf ~bytes
        ~kind:`Read;
      (match resolve_peer target with
      | Some mt ->
          Rma.target_accumulate mt.rma mt.tsan ~wid
            ~epoch:(Rma.fences_entered t.rma ~wid) ~call:"MPI_Accumulate"
            ~ptr:
              (Mpisim.Win.target_ptr win ~target
                 ~disp_bytes:(disp * dt.Mpisim.Datatype.size))
            ~bytes
      | None -> ())
  | _ -> ()
