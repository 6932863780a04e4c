(* The [cutests] and [explore] workloads: the correctness matrix as a
   user runs it, and the schedule explorer over the scheduler-sensitive
   family.

   A [cutests] case takes tens of microseconds, so fixed per-run costs
   dominate it: harness reset, detector and device creation, the CuSan
   compile pass. A gain that only helps long runs shows nothing here.
   [explore] is the only workload that drives the picker and the DPOR
   engine (backtracking, sleep sets, the visited table). *)

module C = Testsuite.Cases
module Runner = Testsuite.Runner
module ER = Testsuite.Explore_runner
open Common

(* --- cutests ----------------------------------------------------------- *)

let cutests_probe () = ignore (Runner.run_case (List.hd (C.all ())))

let cutests_measure ~seed ~seconds =
  let next = cycle (Random.State.make [| seed |]) (C.all ()) in
  let missed = ref [] in
  let step () =
    let v = Runner.run_case (next ()) in
    if not v.Runner.pass then missed := v.Runner.case.C.name :: !missed;
    (1, if v.Runner.pass then 0 else 1)
  in
  let r = closed_loop ~seconds step in
  measured
    ~notes:(List.map (fun n -> "misclassified " ^ n) (List.sort_uniq compare !missed))
    r

(* The verdict rule of [Runner.run_case] without faults, applied to a
   traced run of the same configuration. *)
let traced_case p (case : C.case) =
  let res =
    Profile.run p ~nranks:case.C.nranks ~check_types:true
      ~flavor:Harness.Flavor.Must_cusan case.C.app
  in
  let detected = Harness.Run.has_races res || Harness.Run.has_static_musts res in
  detected = (case.C.expect = C.Racy) && res.Harness.Run.deadlock = None

let cutests_profile ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let cases = C.all () in
  warm_up (fun () -> List.iter (fun c -> ignore (Runner.run_case c)) cases);
  let t0 = now () in
  (* untraced reference first, then traced passes, each a whole number
     of seeded passes so both sides see every case equally often *)
  let untraced = ref [] and failed = ref 0 and attempted = ref 0 in
  let tally pass =
    incr attempted;
    if not pass then incr failed
  in
  while !untraced = [] || now () < t0 +. (seconds /. 3.) do
    List.iter
      (fun c ->
        let v = Runner.run_case c in
        tally v.Runner.pass;
        untraced := v.Runner.wall_s :: !untraced)
      (shuffle rng cases)
  done;
  let p = Profile.create () in
  while p.Profile.walls = [] || now () < t0 +. seconds do
    List.iter (fun c -> tally (traced_case p c)) (shuffle rng cases)
  done;
  let spans, ok = Profile.values p in
  if not ok then incr failed;
  let traced = Profile.traced_wall p in
  {
    p_attempted = !attempted;
    p_failed = !failed;
    values =
      spans
      @ [ ("trace.overhead_pct", overhead_pct ~traced ~untraced:(Stats.median !untraced)) ];
    spans = Profile.chrome_events p;
    p_notes =
      Fmt.str "%d untraced and %d traced cases" (List.length !untraced)
        (List.length p.Profile.walls)
      :: (if ok then [] else [ "span accounting does not sum to the traced wall time" ]);
  }

(* --- explore ----------------------------------------------------------- *)

let budget = 256

let explore_one case =
  let v = ER.explore_case ~budget ~workers:1 case in
  (v.ER.stats.Explore.runs, if v.ER.pass && v.ER.stats.Explore.exhausted then 0 else 1)

let explore_probe () = ignore (explore_one (List.hd (C.sched_sensitive ())))

(* One operation explores one case's whole schedule space; its units
   are the schedules run, so the rate is schedules per second. *)
let explore_measure ~seed ~seconds =
  let next = cycle (Random.State.make [| seed |]) (C.sched_sensitive ()) in
  measured (closed_loop ~seconds (fun () -> explore_one (next ())))

let explore_profile ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let cases = C.sched_sensitive () in
  warm_up (fun () -> List.iter (fun c -> ignore (explore_one c)) cases);
  let t0 = now () in
  let untraced = ref [] and failed = ref 0 and attempted = ref 0 in
  while !untraced = [] || now () < t0 +. (seconds /. 3.) do
    List.iter
      (fun c ->
        let s0 = now () in
        let runs, bad = explore_one c in
        attempted := !attempted + runs;
        failed := !failed + (bad * runs);
        untraced := ((now () -. s0) /. float runs) :: !untraced)
      (shuffle rng cases)
  done;
  let run_s = ref 0. and total_s = ref 0. and runs = ref 0 and distinct = ref 0 in
  let branches = ref 0 and visited = ref 0 and sleeps = ref 0 and gc = ref gc_zero in
  let per_sched = ref [] in
  while !per_sched = [] || now () < t0 +. seconds do
    List.iter
      (fun (c : C.case) ->
        let s0 = now () in
        let run ~picker ~record_op =
          let r0 = now () in
          let exposed = ER.run_one c ~picker ~record_op in
          run_s := !run_s +. (now () -. r0);
          exposed
        in
        let st = with_gc gc (fun () -> Explore.explore ~budget ~workers:1 ~run ()) in
        let dt = now () -. s0 in
        total_s := !total_s +. dt;
        let k = st.Explore.runs in
        runs := !runs + k;
        distinct := !distinct + st.Explore.distinct_traces;
        branches := !branches + st.Explore.branches;
        visited := !visited + st.Explore.visited_hits;
        sleeps := !sleeps + st.Explore.sleep_skips;
        per_sched := (dt /. float k) :: !per_sched;
        attempted := !attempted + k;
        let pass = (st.Explore.exposed_at <> None) = (c.C.expect = C.Racy) in
        if not (pass && st.Explore.exhausted) then failed := !failed + k)
      (shuffle rng cases)
  done;
  let n = float !runs in
  let per x = float x /. n in
  let traced = Stats.median !per_sched in
  {
    p_attempted = !attempted;
    p_failed = !failed;
    values =
      gc_values ~per:n !gc
      @ [
          ("explore.run_s", !run_s /. n);
          ("explore.engine_s", (!total_s -. !run_s) /. n);
          ("explore.branches", per !branches);
          ("explore.visited_hits", per !visited);
          ("explore.sleep_skips", per !sleeps);
          ("explore.distinct_ratio", per !distinct);
          ("trace.wall_s", traced);
          ( "trace.overhead_pct",
            overhead_pct ~traced ~untraced:(Stats.median !untraced) );
        ];
    spans = [];
    p_notes = [ Fmt.str "%d schedules traced" !runs ];
  }
