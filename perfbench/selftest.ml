(* Checks of the benchmark's own arithmetic, run with [main.exe
   selftest] (about a second): order statistics against values
   CPython's [statistics] module gives, the tail-percentile rule,
   regression bounds with absolute slack and zero-tolerance failures,
   exclusive span accounting, and the agreement of the metric
   catalogue with BENCHMARK.json. *)

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Fmt.pr "FAIL %s@." name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let stats () =
  let q xs (a, b, c) =
    let x, y, z = Stats.quartiles xs in
    close x a && close y b && close z c
  in
  (* statistics.quantiles(xs, n=4) *)
  check "quartiles 1..10" (q (List.init 10 (fun i -> float (i + 1))) (2.75, 5.5, 8.25));
  check "quartiles of two" (q [ 2.; 1. ] (0.75, 1.5, 2.25));
  check "quartiles of three" (q [ 3.; 1.; 2. ] (1., 2., 3.));
  check "quartiles 5 values" (q [ 1.; 3.; 9.; 4.; 7. ] (2., 4., 8.));
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median odd" (close (Stats.median [ 5.; 1.; 3. ]) 3.);
  let one_to n = List.init n (fun i -> float (i + 1)) in
  check "spread" (close (Stats.spread (one_to 10)) (5.5 /. 5.5));
  (* at least ten samples beyond the reported percentile *)
  check "no tail under 100" (Stats.tail_percentile 99 = None);
  check "p90 at 100" (Stats.tail_percentile 100 = Some 90.);
  check "p90 at 999" (Stats.tail_percentile 999 = Some 90.);
  check "p99 at 1000" (Stats.tail_percentile 1000 = Some 99.);
  check "p99.9 at 10000" (Stats.tail_percentile 10_000 = Some 99.9);
  check "nearest rank" (close (Stats.percentile 90. (one_to 100)) 90.)

let bounds () =
  let open Stats in
  check "lower beyond" (beyond_bound Lower ~bound:0.1 ~slack:0. ~base:100. ~head:111.);
  check "lower within"
    (not (beyond_bound Lower ~bound:0.1 ~slack:0. ~base:100. ~head:109.));
  check "higher beyond" (beyond_bound Higher ~bound:0.1 ~slack:0. ~base:100. ~head:89.);
  check "higher gain is fine"
    (not (beyond_bound Higher ~bound:0.1 ~slack:0. ~base:100. ~head:200.));
  check "slack absorbs a small absolute change"
    (not (beyond_bound Lower ~bound:0.25 ~slack:0.05 ~base:0.1 ~head:0.14));
  check "slack is not unlimited"
    (beyond_bound Lower ~bound:0.25 ~slack:0.05 ~base:0.1 ~head:0.16);
  let steady x = [ x; x *. 1.001; x *. 0.999; x; x *. 1.002 ] in
  let judge ~base ~head = judge Lower ~bound:0.1 ~slack:0. ~base ~head in
  check "agree" (judge ~base:(steady 10.) ~head:(steady 10.5) = Agree);
  check "worse" (judge ~base:(steady 10.) ~head:(steady 12.) = Worse);
  check "better" (judge ~base:(steady 10.) ~head:(steady 8.) = Better);
  check "unresolved when the spread exceeds the bound"
    (judge ~base:[ 5.; 10.; 15.; 10.; 20. ] ~head:(steady 10.) = Unresolved);
  check "all-better resolves a noisy pair"
    (judge ~base:[ 10.; 14.; 20.; 12.; 16. ] ~head:(steady 5.) = Better);
  check "all-worse resolves a noisy pair"
    (judge ~base:[ 10.; 14.; 20.; 12.; 16. ] ~head:(steady 40.) = Worse);
  check "slack resolves small noisy values"
    (Stats.judge Lower ~bound:0.25 ~slack:0.05 ~base:[ 0.002; 0.003; 0.002; 0.0025; 0.004 ]
       ~head:[ 0.003; 0.002; 0.0035; 0.002; 0.003 ]
    = Agree);
  check "one failed run is worse" (fail_verdict ~failed_runs:1 = Worse);
  check "no failed run" (fail_verdict ~failed_runs:0 = Agree)

(* A synthetic run: two tasks, a device span with an op body inside it,
   a blocking MPI span interrupted by the other task. *)
let spans () =
  let p = Profile.create () in
  p.Profile.nranks <- 2;
  let dev = Cudasim.Device.create () in
  p.Profile.devices <- [ dev ];
  let t0 = Common.now () in
  p.Profile.last <- t0;
  let sleep () = Unix.sleepf 0.002 in
  let switch id =
    ignore (Profile.picker p ~step:0 [| { Sched.Scheduler.c_name = "t"; c_id = id } |])
  in
  switch 0;
  Profile.pop p "harness.setup";
  sleep ();
  Profile.push p "cusan.annotate";
  sleep ();
  ignore
    (Cudasim.Device.enqueue dev (Cudasim.Device.default_stream dev) "op" (fun () ->
         Unix.sleepf 0.004));
  Profile.pop p "cusan.annotate";
  Profile.push p "mpisim.call";
  sleep ();
  switch 1;
  Profile.pop p "harness.setup";
  sleep ();
  switch 0;
  sleep ();
  Profile.pop p "mpisim.call";
  ignore (Profile.tick p);
  let wall = p.Profile.last -. t0 in
  p.Profile.walls <- [ wall ];
  let values, ok = Profile.values p in
  let v k = List.assoc k values in
  check "accounting closes" ok;
  check "host remainder is non-negative" (v "host.other_s" >= 0.);
  check "exec moved out of the device span" (v "cudasim.exec_s" >= 0.004);
  check "device span keeps its own time"
    (v "cusan.annotate_s" >= 0.002 && v "cusan.annotate_s" < 0.004);
  check "blocking MPI accrues caller time only"
    (v "mpisim.call_s" >= 0.004 && v "mpisim.call_s" < 0.006);
  let layers =
    List.fold_left (fun a (_, m) -> a +. v m) 0. Profile.span_metrics +. v "host.other_s"
  in
  check "disjoint spans sum to the wall" (close layers wall)

(* A real traced run of a small Jacobi closes its accounting too. *)
let traced_run () =
  let p = Profile.create () in
  let cfg = Apps.Jacobi.config ~nx:32 ~ny:16 ~iters:8 ~norm_every:4 ~nranks:2 () in
  let res =
    Profile.run p ~nranks:2 ~flavor:Harness.Flavor.Must_cusan (Apps.Jacobi.app cfg)
  in
  let values, ok = Profile.values p in
  let v k = List.assoc k values in
  check "traced run is clean" (res.Harness.Run.races = [] && res.Harness.Run.failures = []);
  check "traced accounting closes" ok;
  List.iter (fun (_, m) -> check (m ^ " is reached") (v m > 0.)) Profile.span_metrics;
  check "one FIFO resume per dispatch" (v "sched.resumes" >= 2.)

module J = Reporting.Mjson

(* [doc] with the list under [key] passed through [f]. *)
let edit_list key f = function
  | J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k, v) ->
             match v with J.List xs when k = key -> (k, J.List (f xs)) | _ -> (k, v))
           kvs)
  | j -> j

let catalogue spec =
  match Metrics.load_spec spec with
  | Error e -> check ("read " ^ e) false
  | Ok doc ->
      check "catalogue matches BENCHMARK.json" (Metrics.check_spec doc = Ok ());
      let named n m = Option.bind (J.member "name" m) J.to_str = Some n in
      let dropped =
        edit_list "per_layer" (List.filter (fun m -> not (named "tsan.hb" m))) doc
      in
      check "an unlisted emitted metric is caught"
        (Result.is_error (Metrics.check_spec dropped));
      let ghost =
        J.Obj
          [
            ("name", J.Str "ghost_ms");
            ("unit", J.Str "ms");
            ("better", J.Str "lower");
            ("bound", J.Float 0.1);
          ]
      in
      let extra = edit_list "end_to_end" (fun xs -> ghost :: xs) doc in
      check "a listed metric nobody emits is caught"
        (Result.is_error (Metrics.check_spec extra))

let run ~spec =
  stats ();
  bounds ();
  spans ();
  traced_run ();
  catalogue spec;
  Fmt.pr "selftest: %d of %d checks passed@." (!checks - !failures) !checks;
  exit (if !failures = 0 then 0 else 1)
