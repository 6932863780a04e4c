(* TeaLeaf mini-app demo: heat conduction with a device CG solver and
   non-blocking CUDA-aware halo exchange, under a chosen tool stack.

     dune exec examples/tealeaf_demo.exe
     dune exec examples/tealeaf_demo.exe -- --race cuda-to-mpi
     dune exec examples/tealeaf_demo.exe -- --race mpi-to-cuda *)

let () =
  let nx = ref 64
  and ny = ref 64
  and steps = ref 4
  and cg_iters = ref 12
  and nranks = ref 2
  and race = ref `No
  and flavor = ref Harness.Flavor.Must_cusan in
  let pos key r doc = Trace.Cli.int ~min:1 key (fun n -> r := n) doc in
  Trace.Cli.parse ~prog:"tealeaf_demo"
    [
      pos "--nx" nx "N columns (default 64)";
      pos "--ny" ny "N rows (default 64)";
      pos "--steps" steps "N timesteps (default 4)";
      pos "--cg-iters" cg_iters "N CG iterations per step (default 12)";
      pos "--ranks" nranks "N MPI ranks (default 2)";
      Trace.Cli.value "--race"
        (function
          | "cuda-to-mpi" -> race := `Cuda_to_mpi
          | "mpi-to-cuda" -> race := `Mpi_to_cuda
          | "none" -> race := `No
          | s -> raise (Arg.Bad ("unknown race mode " ^ s)))
        "MODE inject a race: none|cuda-to-mpi|mpi-to-cuda";
      Trace.Cli.value "--flavor"
        (fun s ->
          match Harness.Flavor.of_string s with
          | Some f -> flavor := f
          | None -> raise (Arg.Bad ("unknown flavor " ^ s)))
        "NAME tool stack: vanilla|tsan|must|cusan|must-cusan (default must-cusan)";
      Trace.Cli.trace;
    ];
  (* each rank owns ny / ranks rows *)
  if !ny mod !nranks <> 0 then
    Trace.Cli.usage_error "--ny must be a multiple of --ranks";
  let cfg =
    Apps.Tealeaf.config ~nx:!nx ~ny:!ny ~steps:!steps ~cg_iters:!cg_iters
      ~racy:!race ~nranks:!nranks ()
  in
  Fmt.pr "TeaLeaf %dx%d, %d steps x %d CG iters, %d ranks, %a%s@." !nx !ny
    !steps !cg_iters !nranks Harness.Flavor.pp !flavor
    (match !race with
    | `No -> ""
    | `Cuda_to_mpi -> ", RACY: no device sync before MPI_Isend"
    | `Mpi_to_cuda -> ", RACY: matvec launched before MPI_Waitall");
  let res = Harness.Run.run ~nranks:!nranks ~flavor:!flavor (Apps.Tealeaf.app cfg) in
  let expect = Apps.Tealeaf.reference cfg in
  Fmt.pr "final CG residual: %.12g (serial reference: %.12g)@."
    cfg.Apps.Tealeaf.results.(0) expect;
  Fmt.pr "wall time: %.3f s@." res.Harness.Run.wall_s;
  (match res.Harness.Run.races with
  | [] -> Fmt.pr "no data races detected@."
  | races ->
      Fmt.pr "@.%d data race report(s):@." (List.length races);
      List.iter
        (fun (rank, r) -> Fmt.pr "  rank %d: %s@." rank (Tsan.Report.to_string r))
        races);
  if Harness.Flavor.uses_cusan !flavor then
    Fmt.pr "@.CUDA event counters (rank 0):@.%a@.TSan event counters (rank 0):@.%a@."
      Cusan.Counters.pp res.Harness.Run.cuda_counters Tsan.Counters.pp
      res.Harness.Run.tsan_counters
