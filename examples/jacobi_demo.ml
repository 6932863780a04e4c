(* Jacobi mini-app demo: runs the CUDA-aware MPI Jacobi solver under a
   chosen tool configuration, verifies the result against the serial
   reference, and prints races and event counters.

     dune exec examples/jacobi_demo.exe -- --flavor must-cusan --racy
     dune exec examples/jacobi_demo.exe -- --nx 128 --ny 128 --iters 200

   --faults SPEC (and optional --seed N) runs the fault-tolerant solver
   under the deterministic injector: survivors revoke + shrink the
   communicator, restore from the replicated in-memory checkpoint and
   still converge to the reference norm.

     dune exec examples/jacobi_demo.exe -- --faults 'mpi_collective@1#2:crash' *)

let () =
  let nx = ref 64
  and ny = ref 64
  and iters = ref 100
  and nranks = ref 2
  and racy = ref false
  and deferred = ref false
  and rma = ref false
  and faults_spec = ref None
  and seed = ref None
  and flavor = ref Harness.Flavor.Must_cusan in
  let pos key r doc = Trace.Cli.int ~min:1 key (fun n -> r := n) doc in
  Trace.Cli.parse ~prog:"jacobi_demo"
    [
      pos "--nx" nx "N global columns (default 64)";
      pos "--ny" ny "N global rows (default 64)";
      pos "--iters" iters "N Jacobi iterations (default 100)";
      pos "--ranks" nranks "N MPI ranks (default 2)";
      ("--racy", Arg.Set racy, " skip cudaDeviceSynchronize before the exchange");
      ( "--rma",
        Arg.Set rma,
        " one-sided halo exchange (MPI_Put + fences over device windows)" );
      ( "--deferred",
        Arg.Set deferred,
        " deferred device execution (stale data observable)" );
      Trace.Cli.value "--flavor"
        (fun s ->
          match Harness.Flavor.of_string s with
          | Some f -> flavor := f
          | None -> raise (Arg.Bad ("unknown flavor " ^ s)))
        "NAME tool stack: vanilla|tsan|must|cusan|must-cusan (default must-cusan)";
      Trace.Cli.string "--faults" faults_spec
        "SPEC arm the fault injector and run the fault-tolerant solver \
         (grammar: cutests --faults help)";
      Trace.Cli.int "--seed"
        (fun n -> seed := Some n)
        "N fault-injection PRNG seed (default 0)";
      Trace.Cli.trace;
    ];
  (* each rank owns ny / ranks rows *)
  if !ny mod !nranks <> 0 then
    Trace.Cli.usage_error "--ny must be a multiple of --ranks";
  let cfg =
    Apps.Jacobi.config ~nx:!nx ~ny:!ny ~iters:!iters
      ~norm_every:(max 1 (!iters / 2)) ~racy:!racy
      ~exchange:(if !rma then Apps.Jacobi.Rma else Apps.Jacobi.Sendrecv)
      ~nranks:!nranks ()
  in
  let mode = if !deferred then Cudasim.Device.Deferred else Cudasim.Device.Eager in
  Fmt.pr "Jacobi %dx%d, %d iters, %d ranks, %a%s%s%s@." !nx !ny !iters !nranks
    Harness.Flavor.pp !flavor
    (if !racy then ", RACY (no sync before MPI)" else "")
    (if !rma then ", one-sided exchange" else "")
    (if !deferred then ", deferred execution" else "");
  let expect =
    Apps.Jacobi.reference ~nx:!nx ~ny:!ny ~iters:!iters ~norm_every:1
  in
  (match !faults_spec with
  | None -> ()
  | Some spec ->
      (match Faultsim.Plan.parse_spec spec with
      | Error msg -> Trace.Cli.usage_error ("bad --faults spec: " ^ msg)
      | Ok (spec_seed, plan) ->
          if !rma then
            Trace.Cli.usage_error "the fault-tolerant solver is Sendrecv-only";
          let seed =
            match (!seed, spec_seed) with
            | Some s, _ -> s
            | None, Some s -> s
            | None, None -> 0
          in
          Fmt.pr "faults '%s' (seed %d): running the fault-tolerant solver@."
            (Faultsim.Plan.to_string plan)
            seed;
          let out = Apps.Jacobi.resilient_outcome ~nranks:!nranks in
          let res =
            Harness.Run.run ~nranks:!nranks ~mode ~flavor:!flavor
              ~watchdog:5_000_000 ~faults:(seed, plan)
              (Apps.Jacobi.resilient_app cfg out)
          in
          List.iter
            (fun pm -> Fmt.pr "  %a@." Harness.Run.pp_post_mortem pm)
            res.Harness.Run.post_mortems;
          (match res.Harness.Run.deadlock with
          | None -> ()
          | Some parties ->
              Fmt.pr "  hang diagnosed (deadlock):@.";
              List.iter
                (fun (task, why) -> Fmt.pr "    %s blocked in %s@." task why)
                parties);
          (match res.Harness.Run.stall with
          | None -> ()
          | Some s ->
              Fmt.pr "  hang diagnosed: %a@." Sched.Scheduler.pp_stall s);
          let survivors = ref 0 and converged = ref 0 in
          for rank = 0 to !nranks - 1 do
            let dead =
              List.exists
                (fun pm -> pm.Harness.Run.pm_rank = rank)
                res.Harness.Run.post_mortems
            in
            match List.assoc_opt rank res.Harness.Run.failures with
            | _ when dead -> Fmt.pr "  rank %d: crashed@." rank
            | Some why ->
                incr survivors;
                Fmt.pr "  rank %d: failed: %s@." rank why
            | None ->
                incr survivors;
                let norm = cfg.Apps.Jacobi.results.(rank) in
                let ok =
                  Float.abs (norm -. expect) <= 1e-9 *. Float.max 1. expect
                in
                if ok then incr converged;
                Fmt.pr "  rank %d: final norm %.12g (reference %.12g)%s%s@." rank
                  norm expect
                  (if out.Apps.Jacobi.recovered.(rank) then
                     Fmt.str ", recovered (restarted from iteration %d)"
                       out.Apps.Jacobi.restart_iter.(rank)
                   else "")
                  (if ok then "" else " MISMATCH")
          done;
          Fmt.pr "%d fault(s) injected; %d survivor(s), %d converged@."
            (List.length res.Harness.Run.fault_log)
            !survivors !converged;
          exit (if !survivors > 0 && !converged = !survivors then 0 else 1)));
  let res = Harness.Run.run ~nranks:!nranks ~mode ~flavor:!flavor (Apps.Jacobi.app cfg) in
  Fmt.pr "final residual norm: %.12g (serial reference: %.12g)@."
    cfg.Apps.Jacobi.results.(0) expect;
  Fmt.pr "wall time: %.3f s@." res.Harness.Run.wall_s;
  (match res.Harness.Run.races with
  | [] -> Fmt.pr "no data races detected@."
  | races ->
      Fmt.pr "@.%d data race report(s):@." (List.length races);
      List.iter
        (fun (rank, r) -> Fmt.pr "  rank %d: %s@." rank (Tsan.Report.to_string r))
        races);
  if Harness.Flavor.uses_cusan !flavor then begin
    Fmt.pr "@.CUDA event counters (rank 0):@.%a@." Cusan.Counters.pp
      res.Harness.Run.cuda_counters;
    Fmt.pr "TSan event counters (rank 0):@.%a@." Tsan.Counters.pp
      res.Harness.Run.tsan_counters
  end
