(* Tests for the tool-configuration harness and the full testsuite
   matrix (every case must be classified correctly — the `dune runtest`
   version of `make check-cutests`). *)

module F = Harness.Flavor
module R = Harness.Run


let small_app (env : R.env) =
  let dev = env.R.dev in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:32 in
  Cudasim.Memory.memset dev ~dst:buf ~bytes:256 ~value:0 ();
  Cudasim.Device.device_synchronize dev;
  Cudasim.Memory.free dev buf

let flavors () =
  Alcotest.(check int) "five flavors" 5 (List.length F.all);
  List.iter
    (fun f ->
      match F.of_string (F.name f) with
      | Some f' -> Alcotest.(check string) "roundtrip" (F.name f) (F.name f')
      | None -> Alcotest.failf "%s does not parse" (F.name f))
    F.all;
  Alcotest.(check bool) "vanilla has no tsan" false (F.uses_tsan F.Vanilla);
  Alcotest.(check bool) "cusan uses typeart" true (F.uses_typeart F.Cusan);
  Alcotest.(check bool) "must does not use typeart" false (F.uses_typeart F.Must)

let all_flavors_run_clean () =
  List.iter
    (fun flavor ->
      let res = R.run ~nranks:2 ~flavor small_app in
      Alcotest.(check bool) (F.name flavor ^ " no deadlock") true
        (res.R.deadlock = None);
      Alcotest.(check int) (F.name flavor ^ " no races") 0
        (List.length res.R.races))
    F.all

let deadlock_reported () =
  let app (env : R.env) =
    if env.R.mpi.Mpisim.Mpi.rank = 0 then begin
      let buf = Cudasim.Memory.host_malloc ~ty:Typeart.Typedb.F64 ~count:1 () in
      Mpisim.Mpi.recv env.R.mpi ~buf ~count:1 ~dt:Mpisim.Datatype.double ~src:1
        ~tag:0
    end
  in
  let res = R.run ~nranks:2 ~flavor:F.Vanilla app in
  match res.R.deadlock with
  | Some blocked -> Alcotest.(check bool) "rank0 blocked" true (blocked <> [])
  | None -> Alcotest.fail "deadlock not reported"

let hooks_isolated_between_runs () =
  (* A MUST&CuSan run followed by a vanilla run: the vanilla run must not
     see any leftover instrumentation. *)
  ignore (R.run ~nranks:2 ~flavor:F.Must_cusan small_app);
  Alcotest.(check bool) "memsim hooks cleared" false (Memsim.Hooks.any ());
  let res = R.run ~nranks:2 ~flavor:F.Vanilla small_app in
  Alcotest.(check int) "no tsan counters in vanilla" 0
    res.R.tsan_counters.Tsan.Counters.fiber_switches

let proc_time_positive () =
  let res = R.run ~nranks:2 ~flavor:F.Vanilla small_app in
  Alcotest.(check bool) "wall >= 0" true (res.R.wall_s >= 0.);
  Alcotest.(check bool) "proc_s >= 0" true (res.R.proc_s >= 0.);
  Alcotest.(check bool) "virtual device time charged" true
    (res.R.device_virtual_s > 0.)

let rss_grows_with_tools () =
  let rss flavor =
    (R.run ~nranks:2 ~flavor small_app).R.rss_bytes
  in
  let v = rss F.Vanilla and c = rss F.Must_cusan in
  Alcotest.(check bool) "vanilla positive" true (v > 0);
  Alcotest.(check bool) "tools add memory" true (c > v)

let baseline_rss_added () =
  let base = 10_000_000 in
  let r0 = R.run ~nranks:2 ~flavor:F.Vanilla small_app in
  let r1 = R.run ~nranks:2 ~baseline_rss:base ~flavor:F.Vanilla small_app in
  Alcotest.(check int) "baseline added" (r0.R.rss_bytes + base) r1.R.rss_bytes

let determinism () =
  (* Same program, same flavor: identical counters and race verdicts. *)
  let run () =
    let cfg = Apps.Jacobi.config ~nx:16 ~ny:16 ~iters:5 ~norm_every:5 ~nranks:2 () in
    let res = R.run ~nranks:2 ~flavor:F.Must_cusan (Apps.Jacobi.app cfg) in
    ( res.R.tsan_counters.Tsan.Counters.fiber_switches,
      res.R.tsan_counters.Tsan.Counters.happens_before,
      res.R.cuda_counters.Cusan.Counters.kernels,
      List.length res.R.races,
      cfg.Apps.Jacobi.results.(0) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "deterministic" true (a = b)

(* --- the full correctness matrix, as part of `dune runtest` -------------- *)

let testsuite_size () =
  let cases = Testsuite.Cases.all () in
  Alcotest.(check bool)
    (Printf.sprintf "at least as many cases as the paper's 49 (got %d)"
       (List.length cases))
    true
    (List.length cases >= 49)

let testsuite_names_unique () =
  let names = List.map (fun c -> c.Testsuite.Cases.name) (Testsuite.Cases.all ()) in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let testsuite_all_classified () =
  let verdicts = Testsuite.Runner.run_all () in
  List.iter
    (fun v ->
      if not v.Testsuite.Runner.pass then
        Alcotest.failf "%s" (Fmt.str "%a" Testsuite.Runner.pp_verdict v))
    verdicts

let testsuite_all_classified_deferred () =
  let verdicts = Testsuite.Runner.run_all ~mode:Cudasim.Device.Deferred () in
  let pass, total = Testsuite.Runner.summary verdicts in
  Alcotest.(check int) "all pass in deferred mode" total pass

(* Kernels are compiled and analyzed once per domain ([Kir.Memo]), so a
   case's verdict must not depend on what its domain ran before. Each
   case runs in a fresh domain (cold caches), then twice in one domain
   that has already run every earlier case (warm). *)
let observed (v : Testsuite.Runner.verdict) =
  (v.Testsuite.Runner.reports, v.Testsuite.Runner.static_races, v.Testsuite.Runner.pass)

let in_fresh_domain f = Domain.join (Domain.spawn f)

let check_warm_equals_cold name ~cold (warm1, warm2) =
  Alcotest.(check bool) (name ^ ": first warm run = cold run") true (warm1 = cold);
  Alcotest.(check bool) (name ^ ": second warm run = cold run") true (warm2 = cold)

let twice run =
  let first = run () in
  (first, run ())

let warm_equals_cold () =
  let cases = Testsuite.Cases.all () in
  let run c () = observed (Testsuite.Runner.run_case c) in
  let cold = List.map (fun c -> in_fresh_domain (run c)) cases in
  let warm = in_fresh_domain (fun () -> List.map (fun c -> twice (run c)) cases) in
  List.iter2
    (fun (c, cold) warm -> check_warm_equals_cold c.Testsuite.Cases.name ~cold warm)
    (List.combine cases cold) warm;
  (* witness mode replays in the run's own heap on every call *)
  let case =
    List.find
      (fun c -> c.Testsuite.Cases.name = "intra-kernel/exchange_nobarrier_nok")
      cases
  in
  let run () = observed (Testsuite.Runner.run_case ~prove_static:true case) in
  let cold = in_fresh_domain run in
  let _, _, pass = cold in
  Alcotest.(check bool) "prove_static case passes" true pass;
  check_warm_equals_cold "prove_static" ~cold (in_fresh_domain (fun () -> twice run))

let tests =
  [
    Alcotest.test_case "flavors" `Quick flavors;
    Alcotest.test_case "all flavors run clean" `Quick all_flavors_run_clean;
    Alcotest.test_case "deadlock reported" `Quick deadlock_reported;
    Alcotest.test_case "hooks isolated between runs" `Quick
      hooks_isolated_between_runs;
    Alcotest.test_case "timing fields" `Quick proc_time_positive;
    Alcotest.test_case "rss grows with tools" `Quick rss_grows_with_tools;
    Alcotest.test_case "baseline rss" `Quick baseline_rss_added;
    Alcotest.test_case "determinism" `Quick determinism;
    Alcotest.test_case "testsuite >= 49 cases" `Quick testsuite_size;
    Alcotest.test_case "testsuite names unique" `Quick testsuite_names_unique;
    Alcotest.test_case "testsuite fully classified (eager)" `Quick
      testsuite_all_classified;
    Alcotest.test_case "testsuite fully classified (deferred)" `Quick
      testsuite_all_classified_deferred;
    Alcotest.test_case "warm caches = cold caches" `Quick warm_equals_cold;
  ]

let () = Alcotest.run "harness" [ ("harness", tests) ]
