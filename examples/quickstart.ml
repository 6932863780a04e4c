(* Quickstart: the paper's Fig. 4 program, verbatim.

     cudaMalloc(&d_data, ...);
     if (rank == 0) {
       kernel<<<...>>>(d_data, size);
       cudaDeviceSynchronize();            // <- forget this and race
       MPI_Send(d_data, ...);
     } else {
       MPI_Irecv(d_data, ..., &request);
       MPI_Wait(&request, ...);            // <- forget this and race
       kernel_2<<<...>>>(d_data, size);
     }

   Run it correctly, then with the synchronization removed, under the
   full MUST & CuSan stack, and print what the detector says.

     dune exec examples/quickstart.exe *)

let () = Trace.Cli.parse ~prog:"quickstart" [ Trace.Cli.trace ]

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi
module R = Harness.Run

let size = 256

let kernel_src =
  Kir.Dsl.(
    modul ~kernels:[ "kernel"; "kernel_2" ]
      [
        func "kernel" [ ptr "d_data"; scalar "size" ]
          [ if_ (tid <. p 1) [ store (p 0) tid (i2f tid) ] [] ];
        func "kernel_2" [ ptr "d_data"; scalar "size" ]
          [ if_ (tid <. p 1) [ store (p 0) tid (load (p 0) tid *. f 2.) ] [] ];
      ])

let fig4 ~sync_send ~wait_recv : R.app =
 fun env ->
  let dev = env.R.dev and ctx = env.R.mpi in
  let d_data = Mem.cuda_malloc ~tag:"d_data" dev ~ty:Typeart.Typedb.F64 ~count:size in
  if ctx.Mpi.rank = 0 then begin
    let kernel = env.R.compile (Cudasim.Kernel.make ~kir:(kernel_src, "kernel") "kernel") in
    Dev.launch dev kernel ~grid:size ~args:[| VPtr d_data; VInt size |] ();
    if sync_send then Dev.device_synchronize dev (* blocks until kernel completes *);
    Mpi.send ctx ~buf:d_data ~count:size ~dt:Mpisim.Datatype.double ~dst:1 ~tag:0
  end
  else begin
    let kernel_2 =
      env.R.compile (Cudasim.Kernel.make ~kir:(kernel_src, "kernel_2") "kernel_2")
    in
    let request =
      Mpi.irecv ctx ~buf:d_data ~count:size ~dt:Mpisim.Datatype.double ~src:0 ~tag:0
    in
    if wait_recv then Mpi.wait ctx request (* blocks until Irecv completes *);
    Dev.launch dev kernel_2 ~grid:size ~args:[| VPtr d_data; VInt size |] ();
    Dev.device_synchronize dev;
    if not wait_recv then Mpi.wait ctx request
  end;
  Mem.free dev d_data

let report title res =
  Fmt.pr "@.== %s@." title;
  (match res.R.races with
  | [] -> Fmt.pr "   no data races detected@."
  | races ->
      List.iter
        (fun (rank, r) ->
          Fmt.pr "   rank %d: %s@." rank (Tsan.Report.to_string r))
        races);
  Fmt.pr "   (%d kernel launches intercepted, %d fiber switches)@."
    res.R.cuda_counters.Cusan.Counters.kernels
    res.R.tsan_counters.Tsan.Counters.fiber_switches

(* Intra-kernel races are a different beast: both accesses happen
   inside one launch, so no host-side synchronization is wrong — the
   kernel itself is. The static analysis catches these at compile time
   (the dynamic detector cannot, by construction). *)
let intra_kernel ~with_barrier : R.app =
 fun env ->
  let dev = env.R.dev in
  if env.R.mpi.Mpi.rank = 0 then begin
    let m =
      if with_barrier then Testsuite.Corpus.two_phase_barrier
      else Testsuite.Corpus.neighbor_write
    in
    let entry = List.hd m.Kir.Ir.kernels in
    let k = env.R.compile (Cudasim.Kernel.make ~kir:(m, entry) entry) in
    let pb = Mem.cuda_malloc ~tag:"p" dev ~ty:Typeart.Typedb.F64 ~count:(size + 1) in
    let qb = Mem.cuda_malloc ~tag:"q" dev ~ty:Typeart.Typedb.F64 ~count:size in
    let args =
      if with_barrier then [| Kir.Interp.VPtr pb; Kir.Interp.VPtr qb |]
      else [| Kir.Interp.VPtr pb |]
    in
    Dev.launch dev k ~grid:size ~args ();
    Dev.device_synchronize dev;
    Mem.free dev pb;
    Mem.free dev qb
  end

let report_static title res =
  Fmt.pr "@.== %s@." title;
  (match R.static_musts res with
  | [] -> Fmt.pr "   no static must-races@."
  | musts ->
      List.iter
        (fun (kernel, descr) -> Fmt.pr "   kernel %s: %s@." kernel descr)
        musts);
  List.iter
    (fun (kernel, verdict, descr) ->
      if verdict = Cudasim.Kernel.May_race then
        Fmt.pr "   (may) kernel %s: %s@." kernel descr)
    res.R.static_races

let () =
  Fmt.pr "CuSan quickstart: the paper's Fig. 4 example under MUST & CuSan@.";
  let run app = R.run ~nranks:2 ~flavor:Harness.Flavor.Must_cusan app in
  report "correct: cudaDeviceSynchronize + MPI_Wait in place"
    (run (fig4 ~sync_send:true ~wait_recv:true));
  report "missing cudaDeviceSynchronize before MPI_Send (Fig. 4 line 4 removed)"
    (run (fig4 ~sync_send:false ~wait_recv:true));
  report "kernel launched before MPI_Wait (Fig. 4 line 8 moved down)"
    (run (fig4 ~sync_send:true ~wait_recv:false));
  report_static
    "intra-kernel: p[tid] = p[tid+1] with no __syncthreads() (static must-race)"
    (run (intra_kernel ~with_barrier:false));
  report_static
    "intra-kernel: neighbor exchange split by __syncthreads() (clean)"
    (run (intra_kernel ~with_barrier:true))
