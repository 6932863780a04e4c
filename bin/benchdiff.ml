(* Compare a bench JSON artifact (bench/main.exe --json) against a
   committed baseline and gate on overhead-ratio drift. The CI benchdiff
   job runs this against BENCH_baseline.json; exit 1 means at least one
   overhead cell regressed past the threshold (or vanished from the
   run) or the correctness matrix passed fewer cases than the baseline
   records, exit 2 means the invocation or the inputs were bad. --mode
   selects the cell family: macro (fig10/fig11/fig12 ratios, tight
   threshold, plus the suite pass count) or micro (ns/op rows from
   bench micro, gated loosely against a separate BENCH_micro.json
   baseline). *)

(* The overhead cells of the selected mode, plus the suite summary when
   the mode covers macro cells (the suite is not a micro row). *)
let load_cells ~mode what path =
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Trace.Cli.usage_error (Fmt.str "cannot read %s file: %s" what msg)
  in
  match Reporting.Mjson.of_string contents with
  | Error msg ->
      Trace.Cli.usage_error (Fmt.str "%s %s is not valid JSON: %s" what path msg)
  | Ok j ->
      let cells =
        Reporting.Benchcmp.(filter_mode mode (cells_of_json j))
      in
      if cells = [] then
        Trace.Cli.usage_error
          (Fmt.str "%s %s contains no overhead cells for the selected mode" what
             path);
      let suite =
        if mode = Reporting.Benchcmp.Micro then None
        else Reporting.Benchcmp.suite_of_json j
      in
      (cells, suite)

(* Markdown rendition of the outcomes, appended to --summary FILE:
   GitHub renders $GITHUB_STEP_SUMMARY, so the per-cell deltas show up
   on the workflow run page without digging through logs. *)
let write_summary path ~run_path ~baseline_path ~threshold outcomes =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "### benchdiff: `%s` vs `%s` (threshold %+.0f%%)\n\n" run_path
        baseline_path threshold;
      p "| cell | baseline | run | drift |\n|---|---:|---:|---:|\n";
      List.iter
        (fun oc_ ->
          match oc_ with
          | Reporting.Benchcmp.Ok_cell { key; base; run; drift_pct } ->
              p "| %s | %.3f | %.3f | %+.1f%% |\n" key base run drift_pct
          | Reporting.Benchcmp.Regressed { key; base; run; drift_pct } ->
              p "| **%s** | %.3f | %.3f | **%+.1f%%** ❌ |\n" key base run
                drift_pct
          | Reporting.Benchcmp.Missing { key; base } ->
              p "| **%s** | %.3f | absent | ❌ |\n" key base
          | Reporting.Benchcmp.Suite { base; run = None } ->
              p "| **suite** | %d/%d | absent | ❌ |\n" base.pass base.total
          | Reporting.Benchcmp.Suite { base; run = Some r } ->
              if Reporting.Benchcmp.failed oc_ then
                p "| **suite** | %d/%d | %d/%d | ❌ |\n" base.pass base.total
                  r.pass r.total
              else
                p "| suite | %d/%d | %d/%d | |\n" base.pass base.total r.pass
                  r.total)
        outcomes;
      let failed = List.filter Reporting.Benchcmp.failed outcomes in
      if failed = [] then
        p "\nall %d cells within threshold\n\n" (List.length outcomes)
      else
        p "\n**%d of %d cells regressed beyond %.0f%%**\n\n"
          (List.length failed) (List.length outcomes) threshold)

let () =
  let baseline = ref None
  and run = ref None
  and threshold = ref 25.
  and mode = ref Reporting.Benchcmp.All
  and summary = ref None in
  Trace.Cli.parse ~prog:"benchdiff"
    ~usage:"usage: benchdiff --baseline FILE --run FILE [options]\n\noptions:"
    [
      Trace.Cli.string "--baseline" baseline
        "FILE committed reference JSON (e.g. BENCH_baseline.json)";
      Trace.Cli.string "--run" run "FILE fresh bench JSON to check";
      Trace.Cli.float ~min:0. "--threshold"
        (fun t -> threshold := t)
        "PCT max allowed growth in percent (default 25)";
      Trace.Cli.value "--mode"
        (fun v ->
          match Reporting.Benchcmp.mode_of_string v with
          | Some m -> mode := m
          | None -> raise (Arg.Bad (Fmt.str "--mode expects macro|micro|all, got %S" v)))
        "MODE macro (fig10-12 ratios, suite count), micro (ns rows) or all \
         (default)";
      Trace.Cli.string "--summary" summary
        "FILE append a markdown before/after table (for $GITHUB_STEP_SUMMARY)";
    ];
  let required flag = function
    | Some p -> p
    | None -> Trace.Cli.usage_error (flag ^ " is required")
  in
  let baseline_path = required "--baseline" !baseline in
  let run_path = required "--run" !run in
  let baseline, baseline_suite =
    load_cells ~mode:!mode "baseline" baseline_path
  in
  let run, run_suite = load_cells ~mode:!mode "run" run_path in
  (* Run cells the baseline has never heard of are an inputs problem,
     not a drift verdict: the gate can't vouch for a cell with no
     reference, so name each one and bail with usage-style guidance. *)
  (match Reporting.Benchcmp.unbaselined ~baseline ~run with
  | [] -> ()
  | missing ->
      Fmt.epr "benchdiff: %d run cell(s) missing from baseline %s:@."
        (List.length missing) baseline_path;
      List.iter
        (fun c ->
          Fmt.epr "  %-24s %8.3f (no baseline entry)@."
            c.Reporting.Benchcmp.key c.Reporting.Benchcmp.value)
        missing;
      Trace.Cli.usage_error
        (Fmt.str
           "refresh the committed baseline to cover these cells, e.g.:\n\
           \  cp %s %s\n\
            or regenerate it with the bench harness before re-running \
            benchdiff."
           run_path baseline_path));
  let outcomes =
    Reporting.Benchcmp.compare ~threshold_pct:!threshold ~baseline ~run
    @ Reporting.Benchcmp.compare_suite ~baseline:baseline_suite ~run:run_suite
  in
  Fmt.pr "benchdiff: %s vs %s (threshold %+.0f%%)@." run_path baseline_path
    !threshold;
  List.iter (fun oc -> Fmt.pr "  %a@." Reporting.Benchcmp.pp_outcome oc) outcomes;
  Option.iter
    (fun path ->
      write_summary path ~run_path ~baseline_path ~threshold:!threshold
        outcomes)
    !summary;
  let failed = List.filter Reporting.Benchcmp.failed outcomes in
  if failed <> [] then begin
    Fmt.pr "@.%d of %d cells regressed beyond %.0f%%@." (List.length failed)
      (List.length outcomes) !threshold;
    exit 1
  end
  else Fmt.pr "@.all %d cells within threshold@." (List.length outcomes)
