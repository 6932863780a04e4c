(* Integration tests: Jacobi and TeaLeaf under every tool configuration.
   Correct versions must match the serial reference and be race-free;
   racy variants must be flagged by the CUDA-aware configurations. *)

module F = Harness.Flavor
module R = Harness.Run

let close ?(tol = 1e-9) a b =
  let scale = max 1.0 (max (abs_float a) (abs_float b)) in
  abs_float (a -. b) /. scale < tol

(* --- Jacobi ------------------------------------------------------------- *)

let jacobi_result ?(racy = false) ?(use_stream = true) ?(mode = Cudasim.Device.Eager)
    flavor =
  let cfg = Apps.Jacobi.config ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 ~racy ~use_stream ~nranks:2 () in
  let res = R.run ~nranks:2 ~mode ~flavor (Apps.Jacobi.app cfg) in
  (res, cfg.Apps.Jacobi.results)

let jacobi_correct_matches_reference () =
  let res, results = jacobi_result F.Vanilla in
  Alcotest.(check bool) "no deadlock" true (res.R.deadlock = None);
  let expect = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 in
  Array.iteri
    (fun r got ->
      if not (close got expect) then
        Alcotest.failf "rank %d norm %.12g <> reference %.12g" r got expect)
    results

let jacobi_deferred_matches_reference () =
  let _, results = jacobi_result ~mode:Cudasim.Device.Deferred F.Vanilla in
  let expect = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 in
  Array.iter
    (fun got ->
      if not (close got expect) then
        Alcotest.failf "deferred norm %.12g <> reference %.12g" got expect)
    results

let jacobi_clean_under_all_flavors () =
  List.iter
    (fun flavor ->
      let res, _ = jacobi_result flavor in
      if res.R.races <> [] then
        Alcotest.failf "%s: %d false race(s), first: %s" (F.name flavor)
          (List.length res.R.races)
          (Tsan.Report.to_string (snd (List.hd res.R.races))))
    F.all

let jacobi_racy_detected_by_cusan () =
  (* The CUDA-to-MPI race needs CuSan (kernel access on the stream
     fiber) and MUST (the MPI_Send buffer read) together. *)
  let res, _ = jacobi_result ~racy:true F.Must_cusan in
  Alcotest.(check bool) "MUST & CuSan detects missing device sync" true
    (R.has_races res)

let jacobi_racy_missed_without_cusan () =
  (* Tools observing only a subset of the semantics "will find some
     issues but not all" (paper, Section I): MPI-only, host-only and
     CUDA-only instrumentation each miss this hybrid race. *)
  List.iter
    (fun flavor ->
      let res, _ = jacobi_result ~racy:true flavor in
      Alcotest.(check bool) (F.name flavor ^ " misses it") false (R.has_races res))
    [ F.Vanilla; F.Tsan; F.Must; F.Cusan ]

let jacobi_racy_same_result_eager () =
  (* In eager mode the race is latent: results still correct. *)
  let _, results = jacobi_result ~racy:true F.Must_cusan in
  let expect = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 in
  Array.iter
    (fun got ->
      if not (close got expect) then Alcotest.failf "eager racy changed result")
    results

let jacobi_racy_wrong_result_deferred () =
  (* In deferred mode the missing synchronization has observable
     consequences: the exchange reads stale rows. Enough iterations for
     the diffusion front to cross the rank boundary, and no intermediate
     norm (its blocking D2H copy would force the pending kernels). *)
  let cfg =
    Apps.Jacobi.config ~nx:16 ~ny:16 ~iters:30 ~norm_every:30 ~racy:true
      ~nranks:2 ()
  in
  let _ =
    R.run ~nranks:2 ~mode:Cudasim.Device.Deferred ~flavor:F.Vanilla
      (Apps.Jacobi.app cfg)
  in
  let expect = Apps.Jacobi.reference ~nx:16 ~ny:16 ~iters:30 ~norm_every:30 in
  Alcotest.(check bool) "stale data changes the norm" false
    (Array.for_all (fun got -> close got expect) cfg.Apps.Jacobi.results)

let jacobi_default_stream_only_is_safe () =
  (* Without a user stream every kernel runs on the legacy default
     stream; the blocking D2H copy pattern means the racy flag still
     races (no sync before sendrecv), so check the correct version only. *)
  let res, _ = jacobi_result ~use_stream:false F.Must_cusan in
  Alcotest.(check bool) "clean" false (R.has_races res)

let jacobi_counters_sane () =
  let res, _ = jacobi_result F.Must_cusan in
  let c = res.R.cuda_counters in
  Alcotest.(check int) "streams tracked" 2 c.Cusan.Counters.streams;
  Alcotest.(check int) "kernel calls" (1 + 20 + 2) c.Cusan.Counters.kernels;
  Alcotest.(check int) "memcpys" 2 c.Cusan.Counters.memcpys;
  Alcotest.(check bool) "syncs counted" true (c.Cusan.Counters.syncs >= 20);
  Alcotest.(check int) "all kernels analyzed" 0 c.Cusan.Counters.unanalyzed_kernels;
  let t = res.R.tsan_counters in
  Alcotest.(check bool) "fiber switches" true (t.Tsan.Counters.fiber_switches > 0);
  Alcotest.(check bool) "hb annotated" true (t.Tsan.Counters.happens_before > 0);
  Alcotest.(check bool) "ha annotated" true (t.Tsan.Counters.happens_after > 0);
  Alcotest.(check bool) "tracked bytes" true
    (t.Tsan.Counters.write_bytes > 0 && t.Tsan.Counters.read_bytes > 0)

let jacobi_memory_overhead_ordering () =
  let rss flavor = (fst (jacobi_result flavor)).R.rss_bytes in
  let v = rss F.Vanilla and c = rss F.Cusan in
  Alcotest.(check bool) "cusan adds memory" true (c > v)

(* --- TeaLeaf ------------------------------------------------------------- *)

let tealeaf_result ?(racy = `No) ?(mode = Cudasim.Device.Eager) flavor =
  let cfg = Apps.Tealeaf.config ~nx:16 ~ny:16 ~steps:2 ~cg_iters:5 ~racy ~nranks:2 () in
  let res = R.run ~nranks:2 ~mode ~flavor (Apps.Tealeaf.app cfg) in
  (res, cfg)

let tealeaf_correct_matches_reference () =
  let res, cfg = tealeaf_result F.Vanilla in
  Alcotest.(check bool) "no deadlock" true (res.R.deadlock = None);
  let expect = Apps.Tealeaf.reference cfg in
  Array.iteri
    (fun r got ->
      if not (close ~tol:1e-6 got expect) then
        Alcotest.failf "rank %d rr %.12g <> reference %.12g" r got expect)
    cfg.Apps.Tealeaf.results

let tealeaf_deferred_matches_reference () =
  let _, cfg = tealeaf_result ~mode:Cudasim.Device.Deferred F.Vanilla in
  let expect = Apps.Tealeaf.reference cfg in
  Array.iter
    (fun got ->
      if not (close ~tol:1e-6 got expect) then
        Alcotest.failf "deferred rr %.12g <> reference %.12g" got expect)
    cfg.Apps.Tealeaf.results

let tealeaf_clean_under_all_flavors () =
  List.iter
    (fun flavor ->
      let res, _ = tealeaf_result flavor in
      if res.R.races <> [] then
        Alcotest.failf "%s: false race: %s" (F.name flavor)
          (Tsan.Report.to_string (snd (List.hd res.R.races))))
    F.all

(* The exact (rank, report) list of a racy run. The request fibers named
   in these reports run on recycled clock slots (each CG iteration's
   halo exchange reuses the slots its predecessor's requests retired),
   and the strings are those of a detector that gives every fiber a
   fresh slot: they pin report attribution across a slot's owners. *)
let check_reports res expected =
  Alcotest.(check (list (pair int string)))
    "reports" expected
    (List.map (fun (rank, r) -> (rank, Tsan.Report.to_string r)) res.R.races)

let tealeaf_cuda_to_mpi_race () =
  let res, _ = tealeaf_result ~racy:`Cuda_to_mpi F.Must_cusan in
  Alcotest.(check bool) "detected" true (R.has_races res);
  check_reports res
    [
      ( 0,
        "WARNING: data race at 0x4000000480 (8 bytes)\n\
        \  write of size 8 by fiber 'mpi:req10' in MPI_Irecv\n\
        \  previous write by fiber 'cuda:default-stream' in kernel:tl_beta\n\
        \  location: d_p+1152 (device, 1280 bytes)" );
      ( 0,
        "WARNING: data race at 0x4000000400 (8 bytes)\n\
        \  read of size 8 by fiber 'mpi:req11' in MPI_Isend\n\
        \  previous write by fiber 'cuda:default-stream' in kernel:tl_beta\n\
        \  location: d_p+1024 (device, 1280 bytes)" );
      ( 1,
        "WARNING: data race at 0xc000000000 (8 bytes)\n\
        \  write of size 8 by fiber 'mpi:req8' in MPI_Irecv\n\
        \  previous write by fiber 'cuda:default-stream' in kernel:tl_beta\n\
        \  location: d_p+0 (device, 1280 bytes)" );
      ( 1,
        "WARNING: data race at 0xc000000080 (8 bytes)\n\
        \  read of size 8 by fiber 'mpi:req9' in MPI_Isend\n\
        \  previous write by fiber 'cuda:default-stream' in kernel:tl_beta\n\
        \  location: d_p+128 (device, 1280 bytes)" );
    ]

let tealeaf_mpi_to_cuda_race () =
  (* The Fig. 6 A scenario: needs both MUST (request fibers) and CuSan
     (kernel access on the stream fiber). *)
  let res, _ = tealeaf_result ~racy:`Mpi_to_cuda F.Must_cusan in
  Alcotest.(check bool) "detected" true (R.has_races res);
  check_reports res
    [
      ( 0,
        "WARNING: data race at 0x4000000480 (8 bytes)\n\
        \  read of size 8 by fiber 'cuda:default-stream' in kernel:tl_matvec\n\
        \  previous write by fiber 'mpi:req4' in MPI_Irecv\n\
        \  location: d_p+1152 (device, 1280 bytes)" );
      ( 1,
        "WARNING: data race at 0xc000000000 (8 bytes)\n\
        \  read of size 8 by fiber 'cuda:default-stream' in kernel:tl_matvec\n\
        \  previous write by fiber 'mpi:req6' in MPI_Irecv\n\
        \  location: d_p+0 (device, 1280 bytes)" );
    ]

let tealeaf_mpi_to_cuda_needs_both () =
  List.iter
    (fun flavor ->
      let res, _ = tealeaf_result ~racy:`Mpi_to_cuda flavor in
      Alcotest.(check bool)
        (F.name flavor ^ " alone misses it")
        false (R.has_races res))
    [ F.Tsan; F.Must; F.Cusan ]

let tealeaf_single_stream_counter () =
  let res, _ = tealeaf_result F.Must_cusan in
  Alcotest.(check int) "one tracked stream" 1
    res.R.cuda_counters.Cusan.Counters.streams

let tealeaf_single_rank () =
  let cfg = Apps.Tealeaf.config ~nx:16 ~ny:16 ~steps:1 ~cg_iters:4 ~nranks:1 () in
  let res = R.run ~nranks:1 ~flavor:F.Must_cusan (Apps.Tealeaf.app cfg) in
  Alcotest.(check bool) "clean" false (R.has_races res);
  let expect =
    Apps.Tealeaf.reference
      (Apps.Tealeaf.config ~nx:16 ~ny:16 ~steps:1 ~cg_iters:4 ~nranks:1 ())
  in
  Alcotest.(check bool) "matches reference" true
    (close ~tol:1e-6 cfg.Apps.Tealeaf.results.(0) expect)

let jacobi_rma_matches_reference () =
  (* One-sided (MPI_Put + fences) halo exchange over device windows. *)
  let cfg =
    Apps.Jacobi.config ~nx:32 ~ny:32 ~iters:20 ~norm_every:10
      ~exchange:Apps.Jacobi.Rma ~nranks:2 ()
  in
  let res = R.run ~nranks:2 ~flavor:F.Must_cusan (Apps.Jacobi.app cfg) in
  Alcotest.(check bool) "no deadlock" true (res.R.deadlock = None);
  Alcotest.(check int) "clean" 0 (List.length res.R.races);
  let expect = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 in
  Array.iter
    (fun got ->
      if not (close got expect) then
        Alcotest.failf "rma norm %.12g <> reference %.12g" got expect)
    cfg.Apps.Jacobi.results

let jacobi_rma_racy_detected () =
  (* Missing device sync before the puts: the kernel's stream fiber
     races with MUST's RMA origin-read fiber. *)
  let cfg =
    Apps.Jacobi.config ~nx:32 ~ny:32 ~iters:10 ~norm_every:10 ~racy:true
      ~exchange:Apps.Jacobi.Rma ~nranks:2 ()
  in
  let res = R.run ~nranks:2 ~flavor:F.Must_cusan (Apps.Jacobi.app cfg) in
  Alcotest.(check bool) "detected" true (R.has_races res)

let jacobi_four_ranks () =
  let cfg = Apps.Jacobi.config ~nx:32 ~ny:32 ~iters:12 ~norm_every:12 ~nranks:4 () in
  let res = R.run ~nranks:4 ~flavor:F.Must_cusan (Apps.Jacobi.app cfg) in
  Alcotest.(check bool) "clean" false (R.has_races res);
  let expect = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:12 ~norm_every:12 in
  Array.iter
    (fun got ->
      if not (close got expect) then
        Alcotest.failf "4-rank norm %.12g <> %.12g" got expect)
    cfg.Apps.Jacobi.results

let pingpong_shapes () =
  let measure placement =
    let cfg = Apps.Pingpong.config ~sizes:[ 8; 1024; 65536 ] ~iters:4 ~placement () in
    let res = R.run ~nranks:2 ~flavor:F.Must_cusan (Apps.Pingpong.app cfg) in
    Alcotest.(check int) "clean" 0 (List.length res.R.races);
    !(cfg.Apps.Pingpong.results)
  in
  let dd = measure Apps.Pingpong.Device_to_device in
  let hh = measure Apps.Pingpong.Host_to_host in
  Alcotest.(check int) "all sizes measured" 3 (List.length dd);
  List.iter2
    (fun (bytes, d) (bytes', h) ->
      Alcotest.(check int) "same size" bytes bytes';
      Alcotest.(check bool)
        (Printf.sprintf "CUDA-aware faster at %d bytes" bytes)
        true (d < h))
    dd hh;
  (* latency grows with message size *)
  let lats = List.map snd dd in
  Alcotest.(check bool) "monotone" true (List.sort compare lats = lats)

let pingpong_racy_detected () =
  let cfg = Apps.Pingpong.config ~sizes:[ 512 ] ~iters:2 ~racy:true () in
  let res = R.run ~nranks:2 ~flavor:F.Must_cusan (Apps.Pingpong.app cfg) in
  Alcotest.(check bool) "unsynchronized fill detected" true (R.has_races res)

let tests =
  [
    Alcotest.test_case "jacobi matches reference" `Quick
      jacobi_correct_matches_reference;
    Alcotest.test_case "jacobi deferred matches reference" `Quick
      jacobi_deferred_matches_reference;
    Alcotest.test_case "jacobi clean under all flavors" `Quick
      jacobi_clean_under_all_flavors;
    Alcotest.test_case "jacobi racy detected by CuSan" `Quick
      jacobi_racy_detected_by_cusan;
    Alcotest.test_case "jacobi racy missed without CuSan" `Quick
      jacobi_racy_missed_without_cusan;
    Alcotest.test_case "jacobi racy still correct (eager)" `Quick
      jacobi_racy_same_result_eager;
    Alcotest.test_case "jacobi racy corrupts data (deferred)" `Quick
      jacobi_racy_wrong_result_deferred;
    Alcotest.test_case "jacobi default-stream-only clean" `Quick
      jacobi_default_stream_only_is_safe;
    Alcotest.test_case "jacobi counters" `Quick jacobi_counters_sane;
    Alcotest.test_case "jacobi memory overhead" `Quick
      jacobi_memory_overhead_ordering;
    Alcotest.test_case "jacobi 4 ranks" `Quick jacobi_four_ranks;
    Alcotest.test_case "jacobi RMA exchange matches reference" `Quick
      jacobi_rma_matches_reference;
    Alcotest.test_case "jacobi RMA racy detected" `Quick jacobi_rma_racy_detected;
    Alcotest.test_case "tealeaf matches reference" `Quick
      tealeaf_correct_matches_reference;
    Alcotest.test_case "tealeaf deferred matches reference" `Quick
      tealeaf_deferred_matches_reference;
    Alcotest.test_case "tealeaf clean under all flavors" `Quick
      tealeaf_clean_under_all_flavors;
    Alcotest.test_case "tealeaf cuda-to-mpi race" `Quick tealeaf_cuda_to_mpi_race;
    Alcotest.test_case "tealeaf mpi-to-cuda race" `Quick tealeaf_mpi_to_cuda_race;
    Alcotest.test_case "tealeaf mpi-to-cuda needs MUST&CuSan" `Quick
      tealeaf_mpi_to_cuda_needs_both;
    Alcotest.test_case "tealeaf one tracked stream" `Quick
      tealeaf_single_stream_counter;
    Alcotest.test_case "tealeaf single rank" `Quick tealeaf_single_rank;
    Alcotest.test_case "pingpong: CUDA-aware beats staging" `Quick
      pingpong_shapes;
    Alcotest.test_case "pingpong: racy fill detected" `Quick
      pingpong_racy_detected;
  ]

let () = Alcotest.run "apps" [ ("apps", tests) ]
