(* Hybrid MPI + host threads with per-thread default streams.

   The paper's Section VI-B names per-thread default stream support as
   future work; this simulator implements it. The same two-threaded
   program is safe when both threads share the single legacy default
   stream (their kernels serialize), but races under
   --default-stream per-thread, where each host thread launches onto its
   own stream.

     dune exec examples/hybrid_threads.exe *)

let () = Trace.Cli.parse ~prog:"hybrid_threads" [ Trace.Cli.trace ]

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module R = Harness.Run

let n = 512

let scale_src =
  Kir.Dsl.(
    modul ~kernels:[ "scale" ]
      [
        func "scale"
          [ ptr "buf"; scalar "s"; scalar "n" ]
          [ if_ (tid <. p 2) [ store (p 0) tid (p 1 *. load (p 0) tid) ] [] ];
      ])

let program : R.app =
 fun env ->
  let dev = env.R.dev in
  let scale = env.R.compile (Cudasim.Kernel.make ~kir:(scale_src, "scale") "scale") in
  let buf = Mem.cuda_malloc ~tag:"buf" dev ~ty:Typeart.Typedb.F64 ~count:n in
  Mem.memset dev ~dst:buf ~bytes:(n * 8) ~value:0 ();
  Dev.device_synchronize dev;
  (* Two host threads, each launching on "the default stream". *)
  R.parallel env
    [
      (fun () -> Dev.launch dev scale ~grid:n ~args:[| VPtr buf; VFlt 2.0; VInt n |] ());
      (fun () -> Dev.launch dev scale ~grid:n ~args:[| VPtr buf; VFlt 3.0; VInt n |] ());
    ];
  Dev.device_synchronize dev;
  Mem.free dev buf

let () =
  Fmt.pr "Two host threads launching kernels on 'the default stream'@.";
  let run mode_name default_stream_mode =
    Fmt.pr "@.== --default-stream %s@." mode_name;
    let res =
      R.run ~nranks:1 ~default_stream_mode ~flavor:Harness.Flavor.Cusan program
    in
    (match res.R.races with
    | [] -> Fmt.pr "   no data races detected (kernels serialized)@."
    | races ->
        List.iter
          (fun (_, r) -> Fmt.pr "   %s@." (Tsan.Report.to_string r))
          races);
    Fmt.pr "   tracked streams: %d@."
      res.R.cuda_counters.Cusan.Counters.streams
  in
  run "legacy" Dev.Legacy;
  run "per-thread" Dev.Per_thread
