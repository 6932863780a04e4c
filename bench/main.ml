(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (Fig. 10, Fig. 11, Table I, Fig. 12), the
   correctness testsuite summary, design-choice ablations, and Bechamel
   micro-benchmarks.

     dune exec bench/main.exe              # everything, default sizes
     dune exec bench/main.exe -- --quick   # smaller sizes, fewer repeats
     dune exec bench/main.exe -- fig10 fig12
     dune exec bench/main.exe -- -j 4 --json BENCH_run.json --quick

   -j N runs independent (app × tool-config) cells of fig10/fig12 and
   the testsuite on N worker domains; each timed section still executes
   with the pool drained (Pool.exclusively), so parallelism never
   pollutes a measurement. --json FILE writes a "cusan-bench/1" document
   with the fig10/fig12 overhead ratios — the input of benchdiff. *)

let targets = [ "fig10"; "fig11"; "table1"; "fig12"; "suite"; "ablation"; "micro" ]

let () =
  let quick = ref false
  and jobs = ref 1
  and json_out = ref None
  and wanted = ref [] in
  Trace.Cli.parse ~prog:"bench"
    ~usage:
      ("usage: main.exe [options] [TARGET]...\n\n\
        TARGET: " ^ String.concat "|" targets ^ " (default: all)\n\n\
        options:")
    ~anon:(fun t ->
      if List.mem t targets then wanted := !wanted @ [ t ]
      else raise (Arg.Bad (Fmt.str "unknown target %S" t)))
    [
      ("--quick", Arg.Set quick, " smaller sizes, fewer repeats");
      Trace.Cli.workers ~min:0 "-j"
        (fun n -> jobs := n)
        "N shard cells over N worker domains (0 = one per core)";
      Trace.Cli.string "--json" json_out
        "FILE write the overhead ratios as JSON (schema cusan-bench/1)";
      Trace.Cli.trace;
    ];
  let wanted = if !wanted = [] then targets else !wanted in
  let jobs = if !jobs = 0 then Pool.default_workers () else !jobs in
  (* The flight recorder is domain-local, so traced runs are sequential
     (timed sections are exclusively-held either way). *)
  let jobs =
    if Trace.Cli.tracing () && jobs > 1 then begin
      Fmt.epr "bench: --trace forces -j 1 (recorder is domain-local)@.";
      1
    end
    else jobs
  in
  let sz = if !quick then Figs.quick_sizes else Figs.default_sizes in
  Fmt.pr "CuSan reproduction benchmark harness%s%s@."
    (if !quick then " (quick sizes)" else "")
    (if jobs > 1 then Fmt.str " (%d workers)" jobs else "");
  Fmt.pr "Jacobi %dx%d x%d iters, TeaLeaf %dx%d x%d steps x%d CG, %d repeats@."
    sz.Figs.jacobi_nx sz.Figs.jacobi_ny sz.Figs.jacobi_iters sz.Figs.tealeaf_nx
    sz.Figs.tealeaf_ny sz.Figs.tealeaf_steps sz.Figs.tealeaf_cg sz.Figs.repeats;
  (* One pool for the whole run; fig10/fig12/suite shard over it, the
     other targets stay sequential (their cells interleave printing or
     depend on each other). *)
  let pool = if jobs > 1 then Some (Pool.create ~workers:jobs) else None in
  let fig10_rows = ref None in
  let fig11_rows = ref None in
  let fig12_rows = ref None in
  let suite_sum = ref None in
  let micro_rows = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun what ->
          match what with
          | "fig10" -> fig10_rows := Some (Figs.fig10 ?pool sz)
          | "fig11" -> fig11_rows := Some (Figs.fig11 sz)
          | "table1" -> ignore (Figs.table1 sz)
          | "fig12" -> fig12_rows := Some (Figs.fig12 ?pool sz)
          | "ablation" -> Figs.ablation sz
          | "micro" -> micro_rows := Some (Micro.run ())
          | "suite" ->
              let vs = Testsuite.Runner.run_matrix ~j:jobs () in
              let pass, total = Testsuite.Runner.summary vs in
              suite_sum := Some (pass, total);
              Fmt.pr "@.=== Correctness testsuite (Section VI-C)@.";
              Fmt.pr
                "  %d of %d cases classified correctly (paper: 49/49 at v1.0)@."
                pass total;
              List.iter
                (fun v ->
                  if not v.Testsuite.Runner.pass then
                    Fmt.pr "  %a@." Testsuite.Runner.pp_verdict v)
                vs
          | _ -> assert false)
        wanted);
  (match !json_out with
  | None -> ()
  | Some path ->
      let open Reporting.Mjson in
      let fig10_json =
        match !fig10_rows with
        | None -> []
        | Some (j, t) ->
            let rows app =
              List.map (fun (flavor, rel, paper) ->
                  Obj
                    [
                      ("app", Str app);
                      ("flavor", Str flavor);
                      ("rel", Float rel);
                      ("paper", Float paper);
                    ])
            in
            [ ("fig10", List (rows "Jacobi" j @ rows "TeaLeaf" t)) ]
      in
      let fig11_json =
        match !fig11_rows with
        | None -> []
        | Some (j, t) ->
            let rows app =
              List.map (fun (flavor, rel, paper) ->
                  Obj
                    [
                      ("app", Str app);
                      ("flavor", Str flavor);
                      ("rel", Float rel);
                      ("paper", Float paper);
                    ])
            in
            [ ("fig11", List (rows "Jacobi" j @ rows "TeaLeaf" t)) ]
      in
      let fig12_json =
        match !fig12_rows with
        | None -> []
        | Some rows ->
            [
              ( "fig12",
                List
                  (List.map
                     (fun (nx, ny, v, c, rd, wr) ->
                       Obj
                         [
                           ("nx", Int nx);
                           ("ny", Int ny);
                           ("vanilla_s", Float v);
                           ("cusan_s", Float c);
                           ("rel", Float (c /. v));
                           ("read_bytes", Int rd);
                           ("write_bytes", Int wr);
                         ])
                     rows) );
            ]
      in
      let suite_json =
        match !suite_sum with
        | None -> []
        | Some (pass, total) ->
            [ ("suite", Obj [ ("pass", Int pass); ("total", Int total) ]) ]
      in
      let micro_json =
        match !micro_rows with
        | None -> []
        | Some rows ->
            [
              ( "micro",
                List
                  (List.map
                     (fun (name, ns) ->
                       Obj [ ("name", Str name); ("ns", Float ns) ])
                     rows) );
            ]
      in
      let doc =
        Obj
          ([
             ("schema", Str "cusan-bench/1");
             ("quick", Bool !quick);
             ("workers", Int jobs);
           ]
          @ fig10_json @ fig11_json @ fig12_json @ suite_json @ micro_json)
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (to_string_pretty doc));
      Fmt.pr "@.wrote %s@." path);
  Fmt.pr "@.done.@."
