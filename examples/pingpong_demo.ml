(* OSU-style CUDA-aware ping-pong: modelled one-way latency and
   bandwidth for device-to-device (CUDA-aware MPI) vs. host-staged
   transfers, plus what CuSan reports when the fill kernel is not
   synchronized before the first send.

     dune exec examples/pingpong_demo.exe

   With --faults SPEC (and optional --seed N) the demo instead runs the
   fault-tolerant ping-pong under the deterministic injector: kill a
   rank mid-volley and the survivor revokes, shrinks to a singleton
   communicator, restores the payload from its checkpoint and finishes.

     dune exec examples/pingpong_demo.exe -- --faults 'mpi_recv@1#3:crash' *)

module R = Harness.Run

let faults_spec = ref None
let seed = ref None

let () =
  Trace.Cli.parse ~prog:"pingpong_demo"
    [
      Trace.Cli.string "--faults" faults_spec
        "SPEC run the fault-tolerant ping-pong under the injector \
         (grammar: cutests --faults help)";
      Trace.Cli.int "--seed"
        (fun n -> seed := Some n)
        "N fault-injection PRNG seed (default 0)";
      Trace.Cli.trace;
    ]

let resilient_demo spec =
  match Faultsim.Plan.parse_spec spec with
  | Error msg -> Trace.Cli.usage_error ("bad --faults spec: " ^ msg)
  | Ok (spec_seed, plan) ->
      let seed =
        match !seed with
        | Some s -> s
        | None -> Option.value spec_seed ~default:0
      in
      let iters = 12 and n = 256 in
      Fmt.pr "Fault-tolerant ping-pong: %d round trips, faults '%s' (seed %d)@."
        iters
        (Faultsim.Plan.to_string plan)
        seed;
      let rep = Apps.Pingpong.resilient_report ~nranks:2 in
      let res =
        R.run ~nranks:2 ~flavor:Harness.Flavor.Vanilla ~watchdog:1_000_000
          ~faults:(seed, plan)
          (Apps.Pingpong.resilient_app ~n ~iters rep)
      in
      List.iter
        (fun pm -> Fmt.pr "  %a@." R.pp_post_mortem pm)
        res.R.post_mortems;
      (match res.R.deadlock with
      | None -> ()
      | Some parties ->
          Fmt.pr "  hang diagnosed (deadlock):@.";
          List.iter
            (fun (task, why) -> Fmt.pr "    %s blocked in %s@." task why)
            parties);
      (match res.R.stall with
      | None -> ()
      | Some s -> Fmt.pr "  hang diagnosed: %a@." Sched.Scheduler.pp_stall s);
      let expect = Apps.Pingpong.expected_checksum ~n in
      let survivors = ref 0 and intact = ref 0 in
      for rank = 0 to 1 do
        let dead =
          List.exists (fun pm -> pm.R.pm_rank = rank) res.R.post_mortems
        in
        if dead then Fmt.pr "  rank %d: crashed@." rank
        else begin
          incr survivors;
          let sum = rep.Apps.Pingpong.checksum.(rank) in
          if sum = expect then incr intact;
          Fmt.pr "  rank %d: %d/%d round trips, checksum %g (expected %g)%s@."
            rank
            rep.Apps.Pingpong.completed.(rank)
            iters sum expect
            (if rep.Apps.Pingpong.recovered.(rank) then
               ", recovered on shrunken communicator"
             else "")
        end
      done;
      Fmt.pr "%d fault(s) injected; %d survivor(s), %d with intact payload@."
        (List.length res.R.fault_log)
        !survivors !intact;
      if !survivors = 0 || !intact <> !survivors then exit 1

let () =
  match !faults_spec with
  | Some spec ->
      resilient_demo spec;
      exit 0
  | None -> ()

let () =
  Fmt.pr "CUDA-aware ping-pong (osu_latency-style), modelled timings@.";
  let measure placement =
    let cfg = Apps.Pingpong.config ~placement () in
    let res = R.run ~nranks:2 ~flavor:Harness.Flavor.Vanilla (Apps.Pingpong.app cfg) in
    ignore res;
    !(cfg.Apps.Pingpong.results)
  in
  let dd = measure Apps.Pingpong.Device_to_device in
  let hh = measure Apps.Pingpong.Host_to_host in
  Fmt.pr "@.  %10s %16s %16s %12s@." "bytes" "D-D lat [us]" "staged lat [us]"
    "D-D speedup";
  List.iter2
    (fun (bytes, d) (_, h) ->
      Fmt.pr "  %10d %16.2f %16.2f %11.2fx@." bytes (d *. 1e6) (h *. 1e6)
        (h /. d))
    dd hh;
  Fmt.pr "@.  %10s %14s %14s@." "bytes" "D-D [GB/s]" "staged [GB/s]";
  List.iter2
    (fun (bytes, d) (_, h) ->
      if bytes >= 4096 then
        Fmt.pr "  %10d %14.2f %14.2f@." bytes
          (float_of_int bytes /. d /. 1e9)
          (float_of_int bytes /. h /. 1e9))
    dd hh;
  (* the race check *)
  let cfg = Apps.Pingpong.config ~sizes:[ 1024 ] ~racy:true () in
  let res = R.run ~nranks:2 ~flavor:Harness.Flavor.Must_cusan (Apps.Pingpong.app cfg) in
  Fmt.pr "@.== unsynchronized fill kernel before the first send@.";
  match res.R.races with
  | [] -> Fmt.pr "   no data races detected (unexpected!)@."
  | races ->
      List.iter
        (fun (rank, r) -> Fmt.pr "   rank %d: %s@." rank (Tsan.Report.to_string r))
        races
