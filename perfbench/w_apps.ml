(* The [jacobi] and [tealeaf] workloads: the paper's two applications,
   two ranks, checked by the full MUST & CuSan stack. One operation is
   one checked run, from start to verdict.

   Both use the same tools in different proportions. Jacobi annotates a
   few large whole-allocation ranges, so its tool cost sits on the TSan
   uniform-page fast path; its device-op bodies are most of its wall
   time. TeaLeaf annotates many small ranges, materializes shadow
   pages, and sends halo and allreduce traffic through MUST. *)

module R = Harness.Run
module F = Harness.Flavor
open Common

type spec = {
  name : string;
  mk : unit -> R.app * (unit -> float array);
      (** a fresh app and, after its run, each rank's final residual *)
  reference : float Lazy.t;
  table1 : (string * int) list;  (** Table I counters of rank 0 *)
}

let jacobi =
  let nx = 256 and ny = 128 and iters = 400 in
  {
    name = "jacobi";
    mk =
      (fun () ->
        let cfg =
          Apps.Jacobi.config ~nx ~ny ~iters ~norm_every:(iters / 2) ~nranks:2 ()
        in
        (Apps.Jacobi.app cfg, fun () -> cfg.Apps.Jacobi.results));
    reference =
      lazy (Apps.Jacobi.reference ~nx ~ny ~iters ~norm_every:(iters / 2));
    table1 =
      [
        ("streams", 2); ("memsets", 0); ("memcpys", 2); ("syncs", 401);
        ("kernels", 403); ("fiber_switches", 810); ("hb", 407); ("ha", 1216);
        ("read_ranges", 812); ("write_ranges", 808);
        ("read_bytes", 55418944); ("write_bytes", 55156784);
      ];
  }

let tealeaf =
  let cfg () = Apps.Tealeaf.config ~nx:64 ~ny:64 ~steps:6 ~cg_iters:20 ~nranks:2 () in
  {
    name = "tealeaf";
    mk =
      (fun () ->
        let c = cfg () in
        (Apps.Tealeaf.app c, fun () -> c.Apps.Tealeaf.results));
    reference = lazy (Apps.Tealeaf.reference (cfg ()));
    table1 =
      [
        ("streams", 1); ("memsets", 18); ("memcpys", 184); ("syncs", 103);
        ("kernels", 553); ("fiber_switches", 1890); ("hb", 945); ("ha", 483);
        ("read_ranges", 1751); ("write_ranges", 1040);
        ("read_bytes", 16069888); ("write_bytes", 6894400);
      ];
  }

let counters (res : R.result) =
  let c = res.R.cuda_counters and t = res.R.tsan_counters in
  [
    ("streams", c.Cusan.Counters.streams);
    ("memsets", c.Cusan.Counters.memsets);
    ("memcpys", c.Cusan.Counters.memcpys);
    ("syncs", c.Cusan.Counters.syncs);
    ("kernels", c.Cusan.Counters.kernels);
    ("fiber_switches", t.Tsan.Counters.fiber_switches);
    ("hb", t.Tsan.Counters.happens_before);
    ("ha", t.Tsan.Counters.happens_after);
    ("read_ranges", t.Tsan.Counters.read_ranges);
    ("write_ranges", t.Tsan.Counters.write_ranges);
    ("read_bytes", t.Tsan.Counters.read_bytes);
    ("write_bytes", t.Tsan.Counters.write_bytes);
  ]

let close a b =
  Float.abs (a -. b) /. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  < 1e-6

(* The oracle of one checked run: a clean verdict (no race, no MUST
   error, no rank failure, no hang), every rank's residual equal to the
   serial reference, and Table I equal to the recorded counters. *)
let problems spec (res : R.result) results =
  let p = ref [] in
  let bad fmt = Fmt.kstr (fun s -> p := s :: !p) fmt in
  if res.R.races <> [] then bad "%d race report(s)" (List.length res.R.races);
  if res.R.must_errors <> [] then
    bad "%d MUST error(s)" (List.length res.R.must_errors);
  if res.R.failures <> [] then bad "%d rank failure(s)" (List.length res.R.failures);
  if res.R.deadlock <> None then bad "deadlock";
  if res.R.stall <> None then bad "stall";
  let expect = Lazy.force spec.reference in
  Array.iteri
    (fun rank got ->
      if not (close got expect) then
        bad "rank %d residual %.17g, reference %.17g" rank got expect)
    results;
  if res.R.flavor = F.Must_cusan && counters res <> spec.table1 then
    bad "Table I counters %s"
      (String.concat " "
         (List.map (fun (k, v) -> Fmt.str "%s=%d" k v) (counters res)));
  List.rev !p

let check_run spec ?(flavor = F.Must_cusan) () =
  let app, results = spec.mk () in
  let res = R.run ~nranks:2 ~flavor app in
  (res, problems spec res (results ()))

let probe spec = ignore (check_run spec ())

let measure spec ~seed:_ ~seconds =
  let notes = ref [] in
  let step () =
    let _, ps = check_run spec () in
    remember notes ps;
    (1, if ps = [] then 0 else 1)
  in
  let r = closed_loop ~seconds step in
  measured ~notes:(List.rev !notes) r

(* --- profile ------------------------------------------------------------- *)

(* Interleaved flavor rounds, the paired-ratio method of the paper
   figures: every round runs each flavor once, back to back, in a
   seeded order, with the major heap drained before each run so no
   flavor inherits another's collection debt. Machine drift hits a whole
   round and cancels in within-round differences and ratios. Returns
   every round's per-flavor results. *)
let paired_rounds spec ~rng ~flavors ~until =
  let rec go acc =
    if acc <> [] && now () >= until then List.rev acc
    else
      let round =
        List.map
          (fun fl ->
            Gc.full_major ();
            (fl, check_run spec ~flavor:fl ()))
          (shuffle rng flavors)
      in
      go (round :: acc)
  in
  go []

let profile spec ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  warm_up (fun () -> ignore (check_run spec ()));
  let t0 = now () in
  let rounds =
    paired_rounds spec ~rng
      ~flavors:[ F.Vanilla; F.Tsan; F.Cusan; F.Must_cusan ]
      ~until:(t0 +. (seconds /. 2.))
  in
  let failed = ref 0 and attempted = ref 0 and notes = ref [] in
  let note ps =
    incr attempted;
    if ps <> [] then begin
      incr failed;
      remember notes ps
    end
  in
  List.iter (List.iter (fun (_, (_, ps)) -> note ps)) rounds;
  let of_rounds f = Stats.median (List.map f rounds) in
  let at fl round = fst (List.assoc fl round) in
  let host fl rd = (at fl rd).R.wall_s -. (at fl rd).R.device_exec_s in
  let step a b = of_rounds (fun rd -> host a rd -. host b rd) in
  let untraced_wall = of_rounds (fun rd -> (at F.Must_cusan rd).R.wall_s) in
  let ladder =
    [
      ("tsan.host_s", step F.Tsan F.Vanilla);
      ("cusan.host_s", step F.Cusan F.Tsan);
      ("must.host_s", step F.Must_cusan F.Cusan);
      ( "flavor.overhead_x",
        of_rounds (fun rd -> (at F.Must_cusan rd).R.proc_s /. (at F.Vanilla rd).R.proc_s) );
      ( "flavor.mem_x",
        of_rounds (fun rd ->
            float (at F.Must_cusan rd).R.rss_bytes
            /. float (at F.Vanilla rd).R.rss_bytes) );
    ]
  in
  (* traced MUST & CuSan runs *)
  let p = Profile.create () in
  while p.Profile.walls = [] || now () < t0 +. seconds do
    let app, results = spec.mk () in
    Gc.full_major ();
    let res = Profile.run p ~nranks:2 ~flavor:F.Must_cusan app in
    note (problems spec res (results ()))
  done;
  let spans, ok = Profile.values p in
  if not ok then begin
    incr failed;
    notes := "span accounting does not sum to the traced wall time" :: !notes
  end;
  let traced = Profile.traced_wall p in
  {
    p_attempted = !attempted;
    p_failed = !failed;
    values =
      spans @ ladder
      @ [ ("trace.overhead_pct", overhead_pct ~traced ~untraced:untraced_wall) ];
    spans = Profile.chrome_events p;
    p_notes =
      Fmt.str "%d paired rounds, %d traced runs" (List.length rounds)
        (List.length p.Profile.walls)
      :: !notes;
  }
