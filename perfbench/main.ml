(* The end-to-end benchmark of the CuSan reproduction: six workloads,
   each run as its own process for a fixed time, printing every
   end-to-end metric (or, with --trace 1, every per-layer metric of an
   outside-in profile) and checking every output against ground truth.

     main.exe --workload jacobi --seed 1 --seconds 15 --trace 0
     main.exe --workload jacobi --profile      # same as --trace 1
     main.exe --smoke                      # every workload, ~0.5 s each
     main.exe compare --base A.json... --head B.json...
     main.exe selftest

   The last line of a run's standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   See perfbench/README.md for the workloads and metrics. *)

module J = Reporting.Mjson
open Common

let workloads = [ "jacobi"; "tealeaf"; "cutests"; "explore"; "kirlint"; "cusand" ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  json_out : string option;
  trace_out : string option;
  spec : string;
  cusand : string;
  work_dir : string;
}

let usage () =
  Fmt.epr
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --profile]@.\
    \                [--json FILE] [--trace-out FILE] [--spec FILE]@.\
    \                [--cusand EXE] [--work-dir DIR]@.\
    \       main.exe --smoke [--spec FILE] [--cusand EXE] [--work-dir DIR]@.\
    \       main.exe compare [--spec FILE] --base FILE... --head FILE...@.\
    \       main.exe selftest [--spec FILE]@.\
     workloads: %s@."
    (String.concat " " workloads)

let die fmt =
  Fmt.kstr
    (fun s ->
      Fmt.epr "perfbench: %s@." s;
      usage ();
      exit 2)
    fmt

let parse argv =
  let num flag conv v =
    match conv v with Some x -> x | None -> die "%s: bad value %S" flag v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest ->
        if not (List.mem v workloads) then die "unknown workload %S" v;
        go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = num "--seed" int_of_string_opt v } rest
    | "--seconds" :: v :: rest ->
        let s = num "--seconds" float_of_string_opt v in
        if not (s > 0.) then die "--seconds must be positive";
        go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--profile" :: rest -> go { o with trace = true } rest
    | "--json" :: v :: rest -> go { o with json_out = Some v } rest
    | "--trace-out" :: v :: rest -> go { o with trace_out = Some v } rest
    | "--spec" :: v :: rest -> go { o with spec = v } rest
    | "--cusand" :: v :: rest -> go { o with cusand = v } rest
    | "--work-dir" :: v :: rest -> go { o with work_dir = v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 15.;
      trace = false;
      smoke = false;
      json_out = None;
      trace_out = None;
      spec = "BENCHMARK.json";
      cusand = "_build/default/bin/cusand.exe";
      work_dir = ".perfbench";
    }
    argv

(* --- set-up time --------------------------------------------------------- *)

(* A workload's set-up time is process start to first operation done,
   measured from outside: spawn this executable in [probe] mode, which
   builds the workload's inputs, runs one operation and reports. The
   operation is the first input in canonical order, not in seeded order,
   so set-up time does not depend on which input a seed puts first. The
   median over several spawns is robust to one slow start. *)
let probe name =
  match name with
  | "jacobi" -> W_apps.probe W_apps.jacobi
  | "tealeaf" -> W_apps.probe W_apps.tealeaf
  | "cutests" -> W_suite.cutests_probe ()
  | "explore" -> W_suite.explore_probe ()
  | "kirlint" -> W_kirlint.probe ()
  | _ -> invalid_arg name

let spawn_probe name =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "probe"; name |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = now () -. t0 in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some "ready" -> dt
  | _ -> failwith (Fmt.str "set-up probe of %s failed" name)

let setup_times o name =
  let reps =
    if o.smoke then 1
    else match name with "jacobi" | "tealeaf" -> 5 | _ -> 11
  in
  List.init reps (fun _ ->
      if name = "cusand" then W_cusand.setup_once ~exe:o.cusand ~work_dir:o.work_dir
      else spawn_probe name)

(* --- one run --------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  samples : (string * float list) list;  (** samples behind a metric *)
  notes : string list;
}

let measure o name =
  let seed = o.seed and seconds = o.seconds in
  let setups = setup_times o name in
  let m =
    match name with
    | "jacobi" -> W_apps.measure W_apps.jacobi ~seed ~seconds
    | "tealeaf" -> W_apps.measure W_apps.tealeaf ~seed ~seconds
    | "cutests" -> W_suite.cutests_measure ~seed ~seconds
    | "explore" -> W_suite.explore_measure ~seed ~seconds
    | "kirlint" -> W_kirlint.measure ~seed ~seconds
    | _ -> W_cusand.measure ~exe:o.cusand ~work_dir:o.work_dir ~smoke:o.smoke ~seed ~seconds
  in
  let lat_ms = List.map (fun s -> s *. 1e3) m.lats in
  let rates = List.map fst m.slices and p50s = List.map (fun (_, l) -> l *. 1e3) m.slices in
  let metrics =
    [
      ("setup_s", Stats.median setups);
      ("ops_per_s", Stats.percentile 90. rates);
      ("op_p50_ms", Stats.percentile 10. p50s);
      ("peak_rss_mb", m.rss_mb);
    ]
  in
  let tail =
    match Stats.tail_percentile (List.length lat_ms) with
    | Some p ->
        [ Fmt.str "op latency p%g: %.4f ms (%d timed operations, %d sampled)" p
            (Stats.percentile p lat_ms) m.timed (List.length lat_ms) ]
    | None -> []
  in
  {
    correct = m.failed = 0 && m.units > 0;
    attempted = m.units;
    failed = m.failed;
    metrics;
    samples = [ ("setup_s", setups); ("ops_per_s", rates); ("op_p50_ms", p50s) ];
    notes = tail @ m.notes;
  }

let profile o name =
  let seed = o.seed and seconds = o.seconds in
  let p =
    match name with
    | "jacobi" -> W_apps.profile W_apps.jacobi ~seed ~seconds
    | "tealeaf" -> W_apps.profile W_apps.tealeaf ~seed ~seconds
    | "cutests" -> W_suite.cutests_profile ~seed ~seconds
    | "explore" -> W_suite.explore_profile ~seed ~seconds
    | "kirlint" -> W_kirlint.profile ~seed ~seconds
    | _ -> W_cusand.profile ~exe:o.cusand ~work_dir:o.work_dir ~smoke:o.smoke ~seed ~seconds
  in
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun l -> l.Metrics.lname = k) Metrics.layers) then
        failwith ("profile emitted an uncatalogued metric " ^ k))
    p.values;
  let value l = Option.value (List.assoc_opt l.Metrics.lname p.values) ~default:0. in
  let path =
    Option.value o.trace_out
      ~default:(Filename.concat o.work_dir (Fmt.str "trace-%s.json" name))
  in
  let notes =
    if p.spans = [] then p.p_notes
    else begin
      Trace.Chrome.write_file path p.spans;
      Fmt.str "wrote %s (%d spans)" path (List.length p.spans) :: p.p_notes
    end
  in
  {
    correct = p.p_failed = 0 && p.p_attempted > 0;
    attempted = p.p_attempted;
    failed = p.p_failed;
    metrics = List.map (fun l -> (l.Metrics.lname, value l)) Metrics.layers;
    samples = [];
    notes;
  }

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (k, v) ->
               (k, J.Obj [ ("value", J.Float v); ("unit", J.Str (Metrics.unit_of k)) ]))
             r.metrics) );
    ]

let print_result ~name ~trace r =
  Fmt.pr "perfbench %s (%s)@." name (if trace then "profile" else "end to end");
  List.iter
    (fun (k, v) ->
      let extra =
        match List.assoc_opt k r.samples with
        | Some xs ->
            let q1, _, q3 = Stats.quartiles xs in
            Fmt.str "  n=%d q1=%.6g q3=%.6g" (List.length xs) q1 q3
        | None -> ""
      in
      Fmt.pr "  %-30s %14.6g %s%s@." k v (Metrics.unit_of k) extra)
    r.metrics;
  List.iter (fun n -> Fmt.pr "  note: %s@." n) r.notes;
  Fmt.pr "  attempted %d, failed %d, %s@." r.attempted r.failed
    (if r.correct then "correct" else "INCORRECT")

let write_json path ~name ~seed ~trace r =
  let doc =
    match result_json r with
    | J.Obj kvs ->
        J.Obj
          ([
             ("schema", J.Str "perfbench/1");
             ("workload", J.Str name);
             ("seed", J.Int seed);
             ("trace", J.Int (if trace then 1 else 0));
           ]
          @ kvs
          @ [
              ( "samples",
                J.Obj
                  (List.map
                     (fun (k, xs) -> (k, J.List (List.map (fun x -> J.Float x) xs)))
                     r.samples) );
            ])
    | j -> j
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string_pretty doc))

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let run_one o name ~trace =
  ensure_dir o.work_dir;
  let r = if trace then profile o name else measure o name in
  let r =
    if List.for_all (fun (_, v) -> Float.is_finite v) r.metrics then r
    else
      {
        r with
        correct = false;
        metrics =
          List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.)) r.metrics;
        notes = "a metric could not be measured" :: r.notes;
      }
  in
  print_result ~name ~trace r;
  r

let check_spec o =
  match Metrics.load_spec o.spec with
  | Error e -> die "cannot read the benchmark definition: %s" e
  | Ok doc -> (
      match Metrics.check_spec doc with
      | Error e -> die "%s disagrees with the code: %s" o.spec e
      | Ok () ->
          let listed = Metrics.spec_workloads doc in
          if List.sort compare listed <> List.sort compare workloads then
            die "%s lists workloads %s" o.spec (String.concat "," listed);
          doc)

(* --- compare ------------------------------------------------------------- *)

let load_run path =
  match J.of_string (Metrics.read_file path) with
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e
  | Ok doc ->
      let str k = Option.bind (J.member k doc) J.to_str in
      let int k = Option.bind (J.member k doc) J.to_int in
      let metrics =
        match J.member "metrics" doc with
        | Some (J.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) J.to_float))
              kvs
        | _ -> []
      in
      let workload =
        match str "workload" with Some w -> w | None -> die "%s: no workload" path
      in
      let failed = Option.value (int "failed") ~default:0 in
      let correct = Option.bind (J.member "correct" doc) J.to_bool = Some true in
      (workload, metrics, failed > 0 || not correct)

let compare o ~base ~head =
  let doc = check_spec o in
  let base = List.map load_run base and head = List.map load_run head in
  let worse = ref false in
  Fmt.pr "%-9s %-28s %12s %8s %12s %8s %8s %6s  %s@." "workload" "metric" "base" "iqr%"
    "head" "iqr%" "delta%" "bound" "verdict";
  List.iter
    (fun w ->
      let side runs = List.filter (fun (x, _, _) -> x = w) runs in
      let b = side base and h = side head in
      if b <> [] && h <> [] then begin
        let present n = List.exists (fun (_, ms, _) -> List.mem_assoc n ms) (b @ h) in
        let names = List.filter present Metrics.names in
        List.iter
          (fun name ->
            let vals runs =
              List.filter_map (fun (_, ms, _) -> List.assoc_opt name ms) runs
            in
            let bv = vals b and hv = vals h in
            if bv <> [] && hv <> [] then begin
              let mb = Stats.median bv and mh = Stats.median hv in
              let e = Metrics.find_e2e name in
              let better = snd (Metrics.describe name) in
              let delta = Stats.worsening better ~base:mb ~head:mh in
              let bound, verdict =
                match e with
                | None -> ("-", "-")
                | Some e ->
                    let bound =
                      match Metrics.spec_bound doc name with
                      | Some b -> b
                      | None -> die "%s gives no bound for %s" o.spec name
                    in
                    let v =
                      Stats.judge better ~bound ~slack:e.Metrics.slack ~base:bv ~head:hv
                    in
                    if v = Stats.Worse then worse := true;
                    (Fmt.str "%.0f%%" (bound *. 100.), Stats.verdict_string v)
              in
              Fmt.pr "%-9s %-28s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %6s  %s@." w name mb
                (100. *. Stats.spread bv) mh (100. *. Stats.spread hv) (100. *. delta) bound
                verdict
            end)
          names;
        (* failures tolerate no slack *)
        let fails runs = List.length (List.filter (fun (_, _, f) -> f) runs) in
        let fb = fails b and fh = fails h in
        let v = Stats.fail_verdict ~failed_runs:fh in
        if v = Stats.Worse then worse := true;
        Fmt.pr "%-9s %-28s %12d %8s %12d %8s %8s %6s  %s@." w "failed_runs" fb "" fh ""
          "" "0" (Stats.verdict_string v)
      end)
    workloads;
  exit (if !worse then 1 else 0)

(* --- main ---------------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminating signal unwinds, so a daemon child and its state
     directory are still cleaned up *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "probe"; name ] ->
      probe name;
      print_endline "ready"
  | "selftest" :: rest -> Selftest.run ~spec:(parse rest).spec
  | "compare" :: rest ->
      let rec split o base head mode = function
        | [] -> (o, List.rev base, List.rev head)
        | "--base" :: tl -> split o base head `Base tl
        | "--head" :: tl -> split o base head `Head tl
        | "--spec" :: v :: tl -> split { o with spec = v } base head mode tl
        | f :: tl -> (
            match mode with
            | `Base -> split o (f :: base) head mode tl
            | `Head -> split o base (f :: head) mode tl
            | `None -> die "compare: %S before --base/--head" f)
      in
      let o, base, head = split (parse []) [] [] `None rest in
      if base = [] || head = [] then die "compare needs --base and --head files";
      compare o ~base ~head
  | argv ->
      let o = parse argv in
      ignore (check_spec o);
      if o.smoke then begin
        let o = { o with seconds = 0.5 } in
        let bad =
          List.concat_map
            (fun name ->
              List.filter_map
                (fun trace ->
                  let r = run_one o name ~trace in
                  if r.correct then None else Some name)
                [ false; true ])
            workloads
        in
        if bad <> [] then begin
          Fmt.pr "smoke: FAILED %s@." (String.concat " " bad);
          exit 1
        end;
        Fmt.pr "smoke: all %d workloads correct@." (List.length workloads)
      end
      else
        let name =
          match o.workload with Some n -> n | None -> die "--workload is required"
        in
        let r = run_one o name ~trace:o.trace in
        Option.iter
          (fun path -> write_json path ~name ~seed:o.seed ~trace:o.trace r)
          o.json_out;
        print_endline (J.to_string (result_json r))
