(* The testsuite runner binary, analogous to `make check-cutests` in the
   paper's artifact: runs every case of the correctness matrix under
   MUST & CuSan and prints PASS/FAIL per case.

   Parallelism: -j N shards the matrix over a domain pool (see
   lib/pool); verdicts are aggregated in case order, so output and exit
   status are identical for every worker count. -j 0 means "one worker
   per core".

   Fault-injection mode: --faults SPEC arms the deterministic injector
   for every case (see Faultsim.Plan.parse_spec for the SPEC grammar;
   a seed=N token or --seed N fixes the PRNG). Any failure prints a
   one-line command that reproduces exactly that case and fault
   schedule.

   Machine-readable output: --json FILE writes a "cusan-tests/1"
   document, --junit FILE writes JUnit XML — the artifacts CI uploads.

   Flight recorder: --trace FILE enables the per-rank ring-buffer
   recorder for the whole run and writes a Chrome trace-event JSON
   (load it in chrome://tracing or Perfetto). Tracing is domain-local,
   so it forces -j 1; verdicts are unaffected — only stderr mentions
   the trace file, keeping stdout byte-identical to an untraced run. *)

let usage =
  "usage: cutests [options]\n\n\
   --explore runs schedule-space exploration (sleep-set DPOR) over the\n\
   sched-sensitive family: each case re-executes under forced schedule\n\
   prefixes until its interleaving space is exhausted or the budget is\n\
   hit, and the report says how many schedules exposing each race\n\
   needed. --only filters the family; --json writes the frontier stats\n\
   (schema cusan-explore/1); -j shards the schedules of a case.\n\
   Incompatible with --faults/--trace/--deferred. --trace forces -j 1\n\
   (the recorder is domain-local).\n\n\
   SPEC  comma-separated rules SITE[@RANK][#NTH|*EVERY|%PROB][:ACTION]\n\
  \      (actions: fail abort hang crash drop delayN wedge),\n\
  \      plus optional seed=N\n\
  \ e.g.  --faults 'cuda_malloc@1#2:fail,mpi_wait#1:hang,seed=7'\n\
  \ `--faults help` prints the full site/action grammar\n\n\
   exit status: 0 all cases classified correctly (under --explore:\n\
  \               every racy case exposed, no clean case misfired),\n\
  \             1 misclassification, 2 usage error (incl. unknown\n\
  \               sites/actions in SPEC)\n\n\
   options:"

let contains ~sub name =
  let nl = String.length name and sl = String.length sub in
  let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
  at 0

let () =
  let deferred = ref false
  and verbose = ref false
  and list_only = ref false
  and only = ref None
  and seed = ref None
  and faults_spec = ref None
  and jobs = ref 1
  and json_out = ref None
  and junit_out = ref None
  and explore = ref false
  and explore_budget = ref 256 in
  Trace.Cli.parse ~prog:"cutests" ~usage
    [
      ("--deferred", Arg.Set deferred, " deferred device execution");
      ("--verbose", Arg.Set verbose, " print the race reports of failing cases");
      ( "--list",
        Arg.Set list_only,
        " print the selected case ids (after --only) and exit" );
      Trace.Cli.string "--only" only "SUBSTR run only cases whose id contains SUBSTR";
      Trace.Cli.int "--seed"
        (fun n -> seed := Some n)
        "N fault-injection seed (wins over a seed=N in SPEC)";
      Trace.Cli.string "--faults" faults_spec
        "SPEC arm the fault injector for every case (grammar above)";
      Trace.Cli.workers ~min:0 "-j"
        (fun n -> jobs := n)
        "N run the matrix on N worker domains (0 = one per core)";
      Trace.Cli.string "--json" json_out
        "FILE write verdicts as JSON (schema cusan-tests/1)";
      Trace.Cli.string "--junit" junit_out "FILE write verdicts as JUnit XML";
      Trace.Cli.trace;
      ( "--explore",
        Arg.Set explore,
        " schedule-space exploration of the sched-sensitive family" );
      Trace.Cli.int ~min:1 "--explore-budget"
        (fun n -> explore_budget := n)
        "N cap schedules per case (default 256)";
    ];
  (* `--faults help` is a documentation query, not a plan: print the
     grammar (generated from the parser's own tables) and stop. *)
  if !faults_spec = Some "help" then begin
    Fmt.pr "%s@." (Faultsim.Plan.grammar_help ());
    exit 0
  end;
  let faults =
    match !faults_spec with
    | None -> None
    | Some spec -> (
        match Faultsim.Plan.parse_spec spec with
        | Error msg -> Trace.Cli.usage_error ("bad --faults spec: " ^ msg)
        | Ok (spec_seed, plan) ->
            let seed =
              match (!seed, spec_seed) with
              | Some s, _ -> s (* --seed wins over an embedded seed=N *)
              | None, Some s -> s
              | None, None -> 0
            in
            Some (seed, plan))
  in
  let mode =
    if !deferred then Cudasim.Device.Deferred else Cudasim.Device.Eager
  in
  let jobs = if !jobs = 0 then Pool.default_workers () else !jobs in
  (* --list prints the *selected* case ids — i.e. after --only filtering
     — one per line, so scripts can expand a filter into concrete case
     names; a filter matching nothing exits 2. *)
  let select ~family all =
    let cases =
      match !only with
      | None -> all
      | Some sub ->
          List.filter
            (fun (c : Testsuite.Cases.case) -> contains ~sub c.Testsuite.Cases.name)
            all
    in
    if cases = [] then begin
      Fmt.epr "cutests: no %scase matches --only %a@." family
        Fmt.(option string)
        !only;
      exit 2
    end;
    if !list_only then begin
      List.iter
        (fun (c : Testsuite.Cases.case) -> Fmt.pr "%s@." c.Testsuite.Cases.name)
        cases;
      exit 0
    end;
    cases
  in
  (* --explore: systematic schedule-space exploration of the
     sched-sensitive family instead of one classification run per case.
     A separate mode, not a matrix flag: these cases are clean under
     the default FIFO schedule by construction, so single-schedule
     classification would misread them. *)
  if !explore then begin
    let incompatible flag =
      Trace.Cli.usage_error ("--explore is incompatible with " ^ flag)
    in
    if !faults_spec <> None then incompatible "--faults";
    if Trace.Cli.tracing () then incompatible "--trace";
    if !deferred then incompatible "--deferred";
    let cases =
      select ~family:"sched-sensitive " (Testsuite.Cases.sched_sensitive ())
    in
    let verdicts =
      List.map
        (Testsuite.Explore_runner.explore_case ~budget:!explore_budget
           ~workers:jobs)
        cases
    in
    let total = List.length verdicts in
    List.iteri
      (fun i v ->
        Fmt.pr "%a (%d of %d)@." Testsuite.Explore_runner.pp_verdict v (i + 1)
          total)
      verdicts;
    (match !json_out with
    | None -> ()
    | Some path ->
        let doc =
          Testsuite.Explore_runner.json ~budget:!explore_budget ~j:jobs
            verdicts
        in
        Testsuite.Emit.write_file path (Reporting.Mjson.to_string_pretty doc);
        Fmt.epr "wrote %s@." path);
    let pass, total = Testsuite.Explore_runner.summary verdicts in
    Fmt.pr "@.%d of %d sched-sensitive cases classified correctly@." pass total;
    exit (if pass = total then 0 else 1)
  end;
  (* The recorder is domain-local: tracing a sharded run would only see
     the coordinating domain. Trace runs are sequential. *)
  let jobs =
    if Trace.Cli.tracing () && jobs > 1 then begin
      Fmt.epr "cutests: --trace forces -j 1 (recorder is domain-local)@.";
      1
    end
    else jobs
  in
  let cases = select ~family:"" (Testsuite.Cases.all ()) in
  (* The exact command that reproduces a failing case: determinism means
     replaying (case, mode, seed, plan) replays the verdict. *)
  let repro (v : Testsuite.Runner.verdict) =
    Fmt.str "dune exec bin/cutests.exe -- --only '%s'%s%s"
      v.Testsuite.Runner.case.Testsuite.Cases.name
      (if !deferred then " --deferred" else "")
      (match faults with
      | None -> ""
      | Some (seed, plan) ->
          Fmt.str " --seed %d --faults '%s'" seed (Faultsim.Plan.to_string plan))
  in
  let verdicts =
    Pool.map ~workers:jobs
      (Testsuite.Runner.run_case ~mode ?faults)
      cases
  in
  let total = List.length verdicts in
  List.iteri
    (fun i v ->
      Fmt.pr "%a (%d of %d)@." Testsuite.Runner.pp_verdict v (i + 1) total;
      (* Crashed ranks leave post-mortems even when the case still
         passes (verdict stability): always show what died where. *)
      List.iter
        (fun pm -> Fmt.pr "    %a@." Harness.Run.pp_post_mortem pm)
        v.Testsuite.Runner.post_mortems;
      if not v.Testsuite.Runner.pass then begin
        Fmt.pr "    reproduce: %s@." (repro v);
        List.iter
          (fun (rank, why) -> Fmt.pr "    rank %d failed: %s@." rank why)
          v.Testsuite.Runner.failures;
        List.iter
          (fun (context, lines) ->
            Fmt.pr "    recent events (%s):@." context;
            List.iter (fun l -> Fmt.pr "      %s@." l) lines)
          v.Testsuite.Runner.history
      end;
      if !verbose && not v.Testsuite.Runner.pass then
        List.iter
          (fun (rank, r) ->
            Fmt.pr "    rank %d: %s@." rank (Tsan.Report.to_string r))
          v.Testsuite.Runner.reports)
    verdicts;
  let pass, total = Testsuite.Runner.summary verdicts in
  let injected =
    List.fold_left (fun acc v -> acc + v.Testsuite.Runner.injected) 0 verdicts
  in
  if faults <> None then
    Fmt.pr "@.%d fault(s) injected across %d cases (seed %d)@." injected total
      (match faults with Some (s, _) -> s | None -> 0);
  (match !json_out with
  | None -> ()
  | Some path ->
      let doc =
        Testsuite.Emit.json
          ?seed:(match faults with Some (s, _) -> Some s | None -> !seed)
          ?faults_spec:!faults_spec
          ~mode:(if !deferred then "deferred" else "eager")
          ~j:jobs verdicts
      in
      Testsuite.Emit.write_file path (Reporting.Mjson.to_string_pretty doc);
      (* stderr, like the trace notice: the @resilience soak diffs
         stdout between runs that differ only in artifact flags. *)
      Fmt.epr "wrote %s@." path);
  (match !junit_out with
  | None -> ()
  | Some path ->
      Testsuite.Emit.write_file path (Testsuite.Emit.junit verdicts);
      Fmt.epr "wrote %s@." path);
  Fmt.pr "@.%d of %d testsuite cases classified correctly@." pass total;
  if pass <> total then exit 1
