(* Managed-memory example: CUDA-only race detection without MPI.

   CUDA-managed memory (cudaMallocManaged) is migrated automatically,
   but *operations on it must still be synchronized* (paper, Section
   III-C). Host code reading a managed buffer while a kernel is writing
   it is a data race CuSan detects on its own — the PyTorch CSAN
   comparison in the paper's Section VI-E covers only this class; CuSan
   handles it for arbitrary C/C++ (here: simulated) codes.

     dune exec examples/managed_memory.exe *)

let () = Trace.Cli.parse ~prog:"managed_memory" [ Trace.Cli.trace ]

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module R = Harness.Run

let n = 1024

let saxpy_src =
  Kir.Dsl.(
    modul ~kernels:[ "saxpy" ]
      [
        func "saxpy"
          [ ptr "y"; ptr "x"; scalar "a"; scalar "n" ]
          [
            if_ (tid <. p 3)
              [ store (p 0) tid ((p 2 *. load (p 1) tid) +. load (p 0) tid) ]
              [];
          ];
      ])

let program ~sync : R.app =
 fun env ->
  let dev = env.R.dev in
  let saxpy = env.R.compile (Cudasim.Kernel.make ~kir:(saxpy_src, "saxpy") "saxpy") in
  let x = Mem.cuda_malloc_managed ~tag:"x" dev ~ty:Typeart.Typedb.F64 ~count:n in
  let y = Mem.cuda_malloc_managed ~tag:"y" dev ~ty:Typeart.Typedb.F64 ~count:n in
  (* Host initialization of managed memory is fine: the kernel launch
     orders it before the device accesses. *)
  for i = 0 to n - 1 do
    Memsim.Access.set_f64 x i (float_of_int i);
    Memsim.Access.set_f64 y i 1.0
  done;
  Dev.launch dev saxpy ~grid:n ~args:[| VPtr y; VPtr x; VFlt 2.0; VInt n |] ();
  if sync then Dev.device_synchronize dev;
  (* Host consumption: racy without the synchronization above. *)
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. Memsim.Access.get_f64 y i
  done;
  Fmt.pr "   sum(y) = %.1f (expected %.1f)@." !s
    (float_of_int n +. (2.0 *. float_of_int (n * (n - 1) / 2)));
  Mem.free dev x;
  Mem.free dev y

let () =
  Fmt.pr "Managed-memory (cudaMallocManaged) host access under CuSan@.";
  let run title sync =
    Fmt.pr "@.== %s@." title;
    let res = R.run ~nranks:1 ~flavor:Harness.Flavor.Cusan (program ~sync) in
    match res.R.races with
    | [] -> Fmt.pr "   no data races detected@."
    | races ->
        List.iter
          (fun (_, r) -> Fmt.pr "   %s@." (Tsan.Report.to_string r))
          races
  in
  run "with cudaDeviceSynchronize before the host read" true;
  run "WITHOUT synchronization (host reads while kernel writes)" false
