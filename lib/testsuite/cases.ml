(* The correctness testsuite, mirroring the paper's cusan-tests
   (Section VI-C): a matrix of small CUDA-aware MPI programs, each
   either correct or containing a data race, used to (i) verify the
   detector and (ii) document which CUDA synchronization features are
   supported and how they behave.

   Axes:
   - direction: cuda-to-mpi (kernel output communicated) with blocking
     or non-blocking sends; mpi-to-cuda (non-blocking receive consumed
     by a kernel); cuda-only (managed memory accessed by host code);
     default-stream legacy semantics; cross-stream events.
   - memory kind: device, managed, or pinned host staged via memcpy.
   - synchronization: cudaDeviceSynchronize, cudaStreamSynchronize,
     cudaEventSynchronize, a cudaStreamQuery busy-wait, a blocking
     memcpy, cudaFree's implicit device sync — or, for the racy (_nok)
     variants: none, synchronizing the wrong stream, or synchronizing
     on an event recorded too early. *)

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi
module R = Harness.Run

type expect = Clean | Racy

type case = {
  name : string;
  expect : expect;
  descr : string;
  nranks : int;
  app : R.app;
}

(* Most of the matrix runs on the paper's two ranks; only cases built
   around wildcard matching need a third. *)
let case ?(nranks = 2) ~name ~expect ~descr app =
  { name; expect; descr; nranks; app }

let n = 64 (* elements per buffer *)
let f64 = Typeart.Typedb.F64

(* --- device code -------------------------------------------------------- *)

let write_func =
  Kir.Dsl.(
    func "ts_write" [ ptr "buf"; scalar "n" ]
      [ if_ (tid <. p 1) [ store (p 0) tid (i2f tid +. f 0.5) ] [] ])

let read_func =
  Kir.Dsl.(
    func "ts_read"
      [ ptr "dst"; ptr "src"; scalar "n" ]
      [ if_ (tid <. p 2) [ store (p 0) tid (load (p 1) tid *. f 2.) ] [] ])

let noop_func = Kir.Dsl.(func "ts_noop" [ ptr "buf" ] [])

let device_module =
  Kir.Dsl.modul ~kernels:[ "ts_write"; "ts_read"; "ts_noop" ]
    [ write_func; read_func; noop_func ]

let kernel env name =
  env.R.compile (Cudasim.Kernel.make ~kir:(device_module, name) name)

(* --- synchronization methods --------------------------------------------- *)

type sync =
  | Dev_sync
  | Stream_sync
  | Event_sync
  | Query_loop
  | Event_query_loop
  | Free_sync
  | Memcpy_implicit
  | No_sync
  | Wrong_stream
  | Stale_event
  | Free_async_no_sync

let sync_name = function
  | Dev_sync -> "devicesync"
  | Stream_sync -> "streamsync"
  | Event_sync -> "eventsync"
  | Query_loop -> "queryloop"
  | Event_query_loop -> "eventqueryloop"
  | Free_sync -> "freesync"
  | Memcpy_implicit -> "memcpyimplicit"
  | No_sync -> "nosync"
  | Wrong_stream -> "wrongstream"
  | Stale_event -> "staleevent"
  | Free_async_no_sync -> "freeasync"

let sync_expect = function
  | Dev_sync | Stream_sync | Event_sync | Query_loop | Event_query_loop
  | Free_sync | Memcpy_implicit ->
      Clean
  | No_sync | Wrong_stream | Stale_event | Free_async_no_sync -> Racy

let sync_descr = function
  | Dev_sync -> "cudaDeviceSynchronize before the MPI call"
  | Stream_sync -> "cudaStreamSynchronize on the compute stream"
  | Event_sync -> "cudaEventSynchronize on an event recorded after the kernel"
  | Query_loop -> "busy-wait on cudaStreamQuery until completion"
  | Event_query_loop -> "busy-wait on cudaEventQuery until the event completed"
  | Free_sync -> "cudaFree of an unrelated buffer (device-wide implicit sync)"
  | Memcpy_implicit ->
      "blocking cudaMemcpy D2H on the same stream (implicit synchronization \
       point)"
  | No_sync -> "no synchronization at all"
  | Wrong_stream -> "cudaStreamSynchronize on an unrelated stream"
  | Stale_event -> "cudaEventSynchronize on an event recorded before the kernel"
  | Free_async_no_sync ->
      "cudaFreeAsync of an unrelated buffer (no device-wide sync, unlike \
       cudaFree)"

(* Run the chosen synchronization method on rank 0's compute stream.
   [pre_kernel] hooks (stale event recording) are returned separately. *)
let apply_sync env sync ~stream ~stale_event =
  let dev = env.R.dev in
  match sync with
  | Dev_sync -> Dev.device_synchronize dev
  | Stream_sync -> Dev.stream_synchronize dev stream
  | Event_sync ->
      let e = Dev.event_create dev in
      Dev.event_record dev e stream;
      Dev.event_synchronize dev e
  | Query_loop ->
      while not (Dev.stream_query dev stream) do
        ()
      done
  | Event_query_loop ->
      let e = Dev.event_create dev in
      Dev.event_record dev e stream;
      while not (Dev.event_query dev e) do
        ()
      done
  | Free_sync ->
      let scratch = Mem.cuda_malloc ~tag:"scratch" dev ~ty:f64 ~count:4 in
      Mem.free dev scratch
  | Memcpy_implicit ->
      (* A blocking D2H copy on the same stream orders all prior stream
         work before the host (paper, Section III-B2). The copied-from
         scratch region is unrelated; it is the copy's synchronicity
         that matters. *)
      let scratch = Mem.cuda_malloc ~tag:"scratch" dev ~ty:f64 ~count:4 in
      let h = Mem.cuda_host_alloc ~tag:"h_scratch" dev ~ty:f64 ~count:4 in
      Mem.memcpy dev ~dst:h ~src:scratch ~bytes:32 ~stream ()
  | No_sync -> ()
  | Wrong_stream ->
      let other = Dev.stream_create dev in
      Dev.stream_synchronize dev other
  | Stale_event -> (
      match stale_event with
      | Some e -> Dev.event_synchronize dev e
      | None -> assert false)
  | Free_async_no_sync ->
      (* Unlike cudaFree, the async variant does not synchronize the
         device — the data dependence stays unordered. *)
      let scratch = Mem.cuda_malloc ~tag:"scratch" dev ~ty:f64 ~count:4 in
      Mem.free_async dev stream scratch

(* --- memory kinds ---------------------------------------------------------- *)

type memkind = Dev_mem | Managed_mem | Pinned_staged

let mem_name = function
  | Dev_mem -> "device"
  | Managed_mem -> "managed"
  | Pinned_staged -> "pinned"

(* --- program skeletons ------------------------------------------------------ *)

(* Receiving side shared by the cuda-to-mpi cases: blocking receive into
   device memory, then consume with a kernel (always correct). *)
let receiver env =
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  let buf = Mem.cuda_malloc ~tag:"r_buf" dev ~ty:f64 ~count:n in
  let out = Mem.cuda_malloc ~tag:"r_out" dev ~ty:f64 ~count:n in
  let k_read = kernel env "ts_read" in
  Mpi.recv ctx ~buf ~count:n ~dt:Mpisim.Datatype.double ~src:0 ~tag:7;
  Dev.launch env.R.dev k_read ~grid:n
    ~args:[| VPtr out; VPtr buf; VInt n |] ();
  Dev.device_synchronize dev;
  Mem.free dev buf;
  Mem.free dev out

(* cuda-to-mpi: rank 0 computes into [memkind] memory on a user stream
   and communicates it with Send or Isend+Wait after [sync]. *)
let cuda_to_mpi ~isend ~memkind ~sync : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let k_write = kernel env "ts_write" in
    let stream = Dev.stream_create dev in
    let dbuf =
      match memkind with
      | Dev_mem | Pinned_staged -> Mem.cuda_malloc ~tag:"d_buf" dev ~ty:f64 ~count:n
      | Managed_mem -> Mem.cuda_malloc_managed ~tag:"m_buf" dev ~ty:f64 ~count:n
    in
    let stale_event =
      if sync = Stale_event then begin
        let e = Dev.event_create dev in
        Dev.event_record dev e stream;
        Some e
      end
      else None
    in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr dbuf; VInt n |] ~stream ();
    let sendbuf =
      match memkind with
      | Dev_mem | Managed_mem ->
          apply_sync env sync ~stream ~stale_event;
          dbuf
      | Pinned_staged ->
          (* Stage through pinned host memory with an async copy on the
             same stream; the chosen sync must cover the copy, too. *)
          let hbuf = Mem.cuda_host_alloc ~tag:"h_buf" dev ~ty:f64 ~count:n in
          Mem.memcpy dev ~dst:hbuf ~src:dbuf ~bytes:(n * 8) ~async:true ~stream ();
          apply_sync env sync ~stream ~stale_event;
          hbuf
    in
    (if isend then begin
       let req =
         Mpi.isend ctx ~buf:sendbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1
           ~tag:7
       in
       Mpi.wait ctx req
     end
     else Mpi.send ctx ~buf:sendbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7);
    Dev.device_synchronize dev;
    Mem.free dev dbuf
  end
  else receiver env

(* mpi-to-cuda: rank 1 posts a non-blocking receive and consumes the
   buffer with a kernel; the variant decides whether MPI_Wait happens
   before the kernel. *)
type m2c_variant = Wait_first | Test_loop | Kernel_before_wait

let m2c_name = function
  | Wait_first -> "wait"
  | Test_loop -> "testloop"
  | Kernel_before_wait -> "nowait"

let m2c_expect = function
  | Wait_first | Test_loop -> Clean
  | Kernel_before_wait -> Racy

let mpi_to_cuda ~memkind ~variant : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let k_write = kernel env "ts_write" in
    let dbuf = Mem.cuda_malloc ~tag:"s_buf" dev ~ty:f64 ~count:n in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr dbuf; VInt n |] ();
    Dev.device_synchronize dev;
    Mpi.send ctx ~buf:dbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7;
    Mem.free dev dbuf
  end
  else begin
    let k_read = kernel env "ts_read" in
    let buf =
      match memkind with
      | Dev_mem | Pinned_staged -> Mem.cuda_malloc ~tag:"r_buf" dev ~ty:f64 ~count:n
      | Managed_mem -> Mem.cuda_malloc_managed ~tag:"r_buf" dev ~ty:f64 ~count:n
    in
    let out = Mem.cuda_malloc ~tag:"r_out" dev ~ty:f64 ~count:n in
    let req =
      Mpi.irecv ctx ~buf ~count:n ~dt:Mpisim.Datatype.double ~src:0 ~tag:7
    in
    let launch_read () =
      Dev.launch dev k_read ~grid:n ~args:[| VPtr out; VPtr buf; VInt n |] ()
    in
    (match variant with
    | Wait_first ->
        Mpi.wait ctx req;
        launch_read ()
    | Test_loop ->
        while not (Mpi.test ctx req) do
          ()
        done;
        launch_read ()
    | Kernel_before_wait ->
        (* MPI semantics require the wait before dependent GPU work
           (paper, Fig. 4 line 8); this violates it. *)
        launch_read ();
        Mpi.wait ctx req);
    Dev.device_synchronize dev;
    Mem.free dev buf;
    Mem.free dev out
  end

(* cuda-only: host code reads managed memory a kernel wrote; no MPI
   involved (detected by CuSan alone). *)
let managed_host ~sync : R.app =
 fun env ->
  let dev = env.R.dev in
  let k_write = kernel env "ts_write" in
  let stream = Dev.stream_create dev in
  let buf = Mem.cuda_malloc_managed ~tag:"m_buf" dev ~ty:f64 ~count:n in
  let stale_event =
    if sync = Stale_event then begin
      let e = Dev.event_create dev in
      Dev.event_record dev e stream;
      Some e
    end
    else None
  in
  Dev.launch dev k_write ~grid:n ~args:[| VPtr buf; VInt n |] ~stream ();
  apply_sync env sync ~stream ~stale_event;
  (* Host access to managed memory: instrumented by TSan's pass. *)
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. Memsim.Access.get_f64 buf i
  done;
  ignore !s;
  Dev.device_synchronize dev;
  Mem.free dev buf

(* default-stream legacy semantics: compute on a user stream, then rely
   on a default-stream operation + sync to cover it. Correct for a
   blocking user stream; racy for a non-blocking one (Fig. 3). *)
let legacy_barrier ~nonblocking : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let k_write = kernel env "ts_write" in
    let k_noop = kernel env "ts_noop" in
    let flags = if nonblocking then Dev.Non_blocking else Dev.Blocking in
    let stream = Dev.stream_create ~flags dev in
    let dbuf = Mem.cuda_malloc ~tag:"d_buf" dev ~ty:f64 ~count:n in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr dbuf; VInt n |] ~stream ();
    (* A kernel on the legacy default stream barriers on blocking user
       streams; synchronizing the default stream then covers them. *)
    Dev.launch dev k_noop ~grid:1 ~args:[| VPtr dbuf |] ();
    Dev.stream_synchronize dev (Dev.default_stream dev);
    Mpi.send ctx ~buf:dbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7;
    Dev.device_synchronize dev;
    Mem.free dev dbuf
  end
  else receiver env

(* cross-stream ordering via cudaStreamWaitEvent, then host sync on the
   waiting stream only. *)
let stream_wait_event_case : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let k_write = kernel env "ts_write" in
    let a = Dev.stream_create dev and b = Dev.stream_create dev in
    let dbuf = Mem.cuda_malloc ~tag:"d_buf" dev ~ty:f64 ~count:n in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr dbuf; VInt n |] ~stream:a ();
    let e = Dev.event_create dev in
    Dev.event_record dev e a;
    Dev.stream_wait_event dev b e;
    Dev.stream_synchronize dev b;
    Mpi.send ctx ~buf:dbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7;
    Dev.device_synchronize dev;
    Mem.free dev dbuf
  end
  else receiver env

(* memsetAsync output communicated without synchronization: the memset
   accesses memory on a stream, asynchronously w.r.t. the host. *)
let memset_async_case ~sync : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let stream = Dev.stream_create dev in
    let dbuf = Mem.cuda_malloc ~tag:"d_buf" dev ~ty:f64 ~count:n in
    Mem.memset dev ~dst:dbuf ~bytes:(n * 8) ~value:0 ~async:true ~stream ();
    apply_sync env sync ~stream ~stale_event:None;
    Mpi.send ctx ~buf:dbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7;
    Dev.device_synchronize dev;
    Mem.free dev dbuf
  end
  else receiver env

(* intra-kernel: the race is between device threads of a single launch,
   so no host/MPI ordering can fix or cause it. The simulator executes
   device threads deterministically, so the dynamic detector never sees
   these — detection comes from the compile-time intra-kernel analysis
   (lib/cusan's [Race_analysis]), whose must-verdicts the harness
   surfaces through [Harness.Run.static_musts]. *)
let intra_kernel ~m ~entry ~alloc : R.app =
 fun env ->
  let dev = env.R.dev in
  if env.R.mpi.Mpi.rank = 0 then begin
    let k = env.R.compile (Cudasim.Kernel.make ~kir:(m, entry) entry) in
    let bufs, args = alloc dev in
    Dev.launch dev k ~grid:n ~args ();
    Dev.device_synchronize dev;
    List.iter (Mem.free dev) bufs
  end

(* --- the matrix -------------------------------------------------------------- *)

let suffix = function Clean -> "" | Racy -> "_nok"

let build () : case list =
  let c2m =
    List.concat_map
      (fun isend ->
        List.concat_map
          (fun memkind ->
            List.map
              (fun sync ->
                let expect = sync_expect sync in
                {
                  name =
                    Fmt.str "cuda-to-mpi/%s_%s_%s%s"
                      (if isend then "isend" else "send")
                      (mem_name memkind) (sync_name sync) (suffix expect);
                  expect;
                  descr =
                    Fmt.str "kernel writes %s memory; %s; %s"
                      (mem_name memkind) (sync_descr sync)
                      (if isend then "MPI_Isend + MPI_Wait" else "MPI_Send");
                  nranks = 2;
                  app = cuda_to_mpi ~isend ~memkind ~sync;
                })
              [
                Dev_sync; Stream_sync; Event_sync; Query_loop;
                Event_query_loop; Free_sync; Memcpy_implicit; No_sync;
                Wrong_stream; Stale_event; Free_async_no_sync;
              ])
          [ Dev_mem; Managed_mem; Pinned_staged ])
      [ false; true ]
  in
  let m2c =
    List.concat_map
      (fun memkind ->
        List.map
          (fun variant ->
            let expect = m2c_expect variant in
            {
              name =
                Fmt.str "mpi-to-cuda/irecv_%s_%s%s" (mem_name memkind)
                  (m2c_name variant) (suffix expect);
              expect;
              descr =
                Fmt.str "MPI_Irecv into %s memory; kernel consumes it %s"
                  (mem_name memkind)
                  (match variant with
                  | Wait_first -> "after MPI_Wait"
                  | Test_loop -> "after a successful MPI_Test loop"
                  | Kernel_before_wait -> "before MPI_Wait (racy)");
              nranks = 2;
              app = mpi_to_cuda ~memkind ~variant;
            })
          [ Wait_first; Test_loop; Kernel_before_wait ])
      [ Dev_mem; Managed_mem ]
  in
  let cuda_only =
    List.map
      (fun sync ->
        let expect = sync_expect sync in
        {
          name =
            Fmt.str "cuda-only/managed_host_%s%s" (sync_name sync) (suffix expect);
          expect;
          descr =
            Fmt.str "host reads managed memory a kernel wrote; %s" (sync_descr sync);
          nranks = 2;
          app = managed_host ~sync;
        })
      [ Dev_sync; Stream_sync; Event_sync; No_sync; Stale_event ]
  in
  let legacy =
    [
      {
        name = "legacy/default_barrier_blocking";
        expect = Clean;
        descr =
          "kernel on a blocking user stream, covered transitively by a \
           default-stream kernel + default-stream sync (legacy barrier)";
        nranks = 2;
        app = legacy_barrier ~nonblocking:false;
      };
      {
        name = "legacy/default_barrier_nonblocking_nok";
        expect = Racy;
        descr =
          "same, but the user stream is non-blocking: the legacy barrier \
           does not apply";
        nranks = 2;
        app = legacy_barrier ~nonblocking:true;
      };
      {
        name = "legacy/stream_wait_event";
        expect = Clean;
        descr =
          "cross-stream ordering via cudaStreamWaitEvent, host syncs the \
           waiting stream only";
        nranks = 2;
        app = stream_wait_event_case;
      };
    ]
  in
  let memset =
    List.map
      (fun sync ->
        let expect = sync_expect sync in
        {
          name = Fmt.str "cuda-to-mpi/memsetasync_%s%s" (sync_name sync) (suffix expect);
          expect;
          descr = Fmt.str "cudaMemsetAsync output communicated; %s" (sync_descr sync);
          nranks = 2;
          app = memset_async_case ~sync;
        })
      [ Stream_sync; Dev_sync; No_sync ]
  in
  let intra =
    [
      {
        name = "intra-kernel/neighbor_write_nok";
        expect = Racy;
        descr =
          "kernel reads p[tid+1] while writing p[tid] with no \
           __syncthreads() (static must-race)";
        nranks = 2;
        app =
          intra_kernel ~m:Corpus.neighbor_write ~entry:"neighbor_write"
            ~alloc:(fun dev ->
              let pb = Mem.cuda_malloc ~tag:"p" dev ~ty:f64 ~count:(n + 1) in
              ([ pb ], [| Kir.Interp.VPtr pb |]));
      };
      {
        name = "intra-kernel/reduction_nosync_nok";
        expect = Racy;
        descr =
          "every thread read-modify-writes out[0] without synchronization \
           (static must-race)";
        nranks = 2;
        app =
          intra_kernel ~m:Corpus.reduction_nosync ~entry:"reduction_nosync"
            ~alloc:(fun dev ->
              let out = Mem.cuda_malloc ~tag:"out" dev ~ty:f64 ~count:1 in
              let xs = Mem.cuda_malloc ~tag:"xs" dev ~ty:f64 ~count:n in
              ([ out; xs ], [| Kir.Interp.VPtr out; Kir.Interp.VPtr xs |]));
      };
      {
        name = "intra-kernel/exchange_nobarrier_nok";
        expect = Racy;
        descr =
          "definite neighbor exchange with the barrier missing; the \
           repairable corpus kernel (static must-race, fixable at gap 1)";
        nranks = 2;
        app =
          intra_kernel ~m:Corpus.exchange_nobarrier ~entry:"exchange_nobarrier"
            ~alloc:(fun dev ->
              let pb = Mem.cuda_malloc ~tag:"p" dev ~ty:f64 ~count:(n + 1) in
              let qb = Mem.cuda_malloc ~tag:"q" dev ~ty:f64 ~count:n in
              ([ pb; qb ], [| Kir.Interp.VPtr pb; Kir.Interp.VPtr qb |]));
      };
      {
        name = "intra-kernel/two_phase_barrier";
        expect = Clean;
        descr =
          "neighbor exchange correctly split into two phases by \
           __syncthreads()";
        nranks = 2;
        app =
          intra_kernel ~m:Corpus.two_phase_barrier ~entry:"two_phase_barrier"
            ~alloc:(fun dev ->
              let pb = Mem.cuda_malloc ~tag:"p" dev ~ty:f64 ~count:n in
              let qb = Mem.cuda_malloc ~tag:"q" dev ~ty:f64 ~count:n in
              ([ pb; qb ], [| Kir.Interp.VPtr pb; Kir.Interp.VPtr qb |]));
      };
      {
        name = "intra-kernel/guarded_reduction";
        expect = Clean;
        descr = "serial reduction owned by thread 0 via a tid == 0 guard";
        nranks = 2;
        app =
          intra_kernel ~m:Corpus.guarded_reduction ~entry:"guarded_reduction"
            ~alloc:(fun dev ->
              let out = Mem.cuda_malloc ~tag:"out" dev ~ty:f64 ~count:1 in
              let xs = Mem.cuda_malloc ~tag:"xs" dev ~ty:f64 ~count:n in
              ( [ out; xs ],
                [| Kir.Interp.VPtr out; Kir.Interp.VPtr xs; Kir.Interp.VInt n |]
              ));
      };
    ]
  in
  c2m @ m2c @ cuda_only @ legacy @ memset @ intra

(* The matrix and its name table, built once per domain on the
   domain's first use (as [Kir.Memo] keeps its caches), so a process
   that never runs the matrix never builds it. A case is an immutable
   record over a pure closure, so cases built on one domain run on any
   other. A [Lazy] shared by all domains would not do: OCaml 5 raises
   when two domains force one at once. *)
let matrix =
  Domain.DLS.new_key (fun () ->
      let cases = build () in
      let by_name = Hashtbl.create 128 in
      List.iter
        (fun c -> if not (Hashtbl.mem by_name c.name) then Hashtbl.add by_name c.name c)
        cases;
      (cases, by_name))

let all () = fst (Domain.DLS.get matrix)

let find name = Hashtbl.find_opt (snd (Domain.DLS.get matrix)) name

(* --- sched-sensitive family ---------------------------------------------- *)

(* Programs whose correctness depends on the *schedule*: the racy
   variants are clean under the default FIFO interleaving (a
   single-schedule run with any seed misses them) and only expose their
   race when the scheduler orders the ranks differently — the schedule
   explorer's quarry. They are deliberately NOT part of {!all}: under a
   single schedule their ground truth is unobservable, so they would
   misclassify by construction. [expect] states the verdict over the
   whole schedule space: [Racy] = some schedule exposes a race, [Clean]
   = no schedule does. *)

(* rank 1 polls its Irecv exactly once and branches on the answer. In
   FIFO order rank 0's eager send has already deposited, the test
   succeeds and the kernel launch is properly ordered. If rank 1 runs
   first the test fails — and the buggy variant launches the consuming
   kernel anyway, before MPI_Wait (the Fig. 4 violation, but guarded by
   a schedule-dependent branch). The clean variant waits first on the
   failure path. *)
let test_poll_branch ~buggy : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let k_write = kernel env "ts_write" in
    let dbuf = Mem.cuda_malloc ~tag:"s_buf" dev ~ty:f64 ~count:n in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr dbuf; VInt n |] ();
    Dev.device_synchronize dev;
    Mpi.send ctx ~buf:dbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:7;
    Mem.free dev dbuf
  end
  else begin
    let k_read = kernel env "ts_read" in
    let buf = Mem.cuda_malloc ~tag:"r_buf" dev ~ty:f64 ~count:n in
    let out = Mem.cuda_malloc ~tag:"r_out" dev ~ty:f64 ~count:n in
    let req =
      Mpi.irecv ctx ~buf ~count:n ~dt:Mpisim.Datatype.double ~src:0 ~tag:7
    in
    let launch_read () =
      Dev.launch dev k_read ~grid:n ~args:[| VPtr out; VPtr buf; VInt n |] ()
    in
    (if Mpi.test ctx req then launch_read ()
     else if buggy then begin
       launch_read ();
       Mpi.wait ctx req
     end
     else begin
       Mpi.wait ctx req;
       launch_read ()
     end);
    Dev.device_synchronize dev;
    Mem.free dev buf;
    Mem.free dev out
  end

(* rank 0 receives a flag from ANY_SOURCE and branches on the payload;
   ranks 1 and 2 race to deposit first (wildcard matching follows
   deposit order). FIFO order delivers rank 1's flag and takes the
   synchronized path; only a schedule that reorders the two sends takes
   the other branch — where the buggy variant reads managed memory a
   kernel is still writing. *)
let wildcard_payload ~buggy : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let flag = Mem.cuda_host_alloc ~tag:"flag" dev ~ty:f64 ~count:1 in
    Mpi.recv ctx ~buf:flag ~count:1 ~dt:Mpisim.Datatype.double
      ~src:Mpi.any_source ~tag:3;
    let first_sender = Memsim.Access.get_f64 flag 0 in
    let k_write = kernel env "ts_write" in
    let stream = Dev.stream_create dev in
    let mbuf = Mem.cuda_malloc_managed ~tag:"m_buf" dev ~ty:f64 ~count:n in
    Dev.launch dev k_write ~grid:n ~args:[| VPtr mbuf; VInt n |] ~stream ();
    if first_sender = 1.0 || not buggy then Dev.stream_synchronize dev stream;
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. Memsim.Access.get_f64 mbuf i
    done;
    ignore !s;
    Dev.device_synchronize dev;
    Mem.free dev mbuf
  end
  else begin
    let flag = Mem.cuda_host_alloc ~tag:"flag" dev ~ty:f64 ~count:1 in
    Memsim.Access.set_f64 flag 0 (float_of_int ctx.Mpi.rank);
    Mpi.send ctx ~buf:flag ~count:1 ~dt:Mpisim.Datatype.double ~dst:0 ~tag:3
  end

(* rank 1 polls its Irecv once and reads the buffer from *host* code:
   on the success path the test synchronizes host and request fiber, on
   the failure path the buggy variant reads while the simulated RDMA
   deposit is still in flight. *)
let single_poll_host ~buggy : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    let sbuf = Mem.cuda_host_alloc ~tag:"s_buf" dev ~ty:f64 ~count:n in
    for i = 0 to n - 1 do
      Memsim.Access.set_f64 sbuf i (float_of_int i)
    done;
    Mpi.send ctx ~buf:sbuf ~count:n ~dt:Mpisim.Datatype.double ~dst:1 ~tag:9
  end
  else begin
    let buf = Mem.cuda_host_alloc ~tag:"r_buf" dev ~ty:f64 ~count:n in
    let req =
      Mpi.irecv ctx ~buf ~count:n ~dt:Mpisim.Datatype.double ~src:0 ~tag:9
    in
    let consume () =
      let s = ref 0. in
      for i = 0 to n - 1 do
        s := !s +. Memsim.Access.get_f64 buf i
      done;
      ignore !s
    in
    if Mpi.test ctx req then consume ()
    else if buggy then begin
      consume ();
      Mpi.wait ctx req
    end
    else begin
      Mpi.wait ctx req;
      consume ()
    end
  end

let sched_sensitive () : case list =
  [
    case ~name:"sched-sensitive/test_poll_branch_nok" ~expect:Racy
      ~descr:
        "single MPI_Test branch: the failure path launches the consuming \
         kernel before MPI_Wait — racy only in schedules where the \
         receiver outruns the sender"
      (test_poll_branch ~buggy:true);
    case ~name:"sched-sensitive/test_poll_branch" ~expect:Clean
      ~descr:"same branch structure, but the failure path waits first"
      (test_poll_branch ~buggy:false);
    case ~nranks:3 ~name:"sched-sensitive/wildcard_payload_nok" ~expect:Racy
      ~descr:
        "ANY_SOURCE flag decides the sync policy: the branch taken when \
         rank 2's deposit wins the match skips stream synchronization"
      (wildcard_payload ~buggy:true);
    case ~nranks:3 ~name:"sched-sensitive/wildcard_payload" ~expect:Clean
      ~descr:"same wildcard branch, but both payload paths synchronize"
      (wildcard_payload ~buggy:false);
    case ~name:"sched-sensitive/single_poll_host_nok" ~expect:Racy
      ~descr:
        "single MPI_Test then host read of the receive buffer: the \
         failure path reads while the deposit is still in flight"
      (single_poll_host ~buggy:true);
    case ~name:"sched-sensitive/single_poll_host" ~expect:Clean
      ~descr:"same poll, but the failure path waits before reading"
      (single_poll_host ~buggy:false);
  ]
