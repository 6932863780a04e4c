(* The benchmark's metric vocabulary: every name a run can print, with
   its unit and direction. BENCHMARK.json lists the same names; every
   run checks the two agree (see [check_spec]), so neither can drift.

   End-to-end metrics are printed by every workload; per-layer metrics
   by every profiled ([--trace 1]) run, as 0 where a workload never
   enters the layer. Additive per-layer values (times, counts, words)
   are per operation of the workload, so runs of different lengths
   compare directly. *)

(* The regression bound of each end-to-end metric lives in
   BENCHMARK.json alone; [slack] widens it by an absolute amount in the
   metric's unit, for set-up times too small for a share to be fair. *)
type e2e = { name : string; unit_ : string; better : Stats.better; slack : float }

let e2e =
  let m ?(slack = 0.) name unit_ better = { name; unit_; better; slack } in
  [
    m "setup_s" "s" Lower ~slack:0.05;
    m "ops_per_s" "1/s" Higher;
    m "op_p50_ms" "ms" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

type layer = { lname : string; lunit : string; lbetter : Stats.better }

let layers =
  let l ?(b = Stats.Lower) lname lunit = { lname; lunit; lbetter = b } in
  let hi = Stats.Higher in
  [
    (* exec cost *)
    l "cudasim.exec_s" "s";
    l "cudasim.virtual_s" "s";
    l "cudasim.api_calls" "count";
    l "cudasim.alloc_mw" "Mword";
    l "gc.minor_mw" "Mword";
    l "gc.major_mw" "Mword";
    l "gc.major_collections" "count";
    (* annotation cost *)
    l "cusan.annotate_s" "s";
    l "cusan.annotate_alloc_mw" "Mword";
    l "tsan.ranges" "count";
    l "tsan.range_mb" "MB";
    l "tsan.uniform_pages" "count";
    l "tsan.region_cache_hit_ratio" "ratio" ~b:hi;
    (* sync and MPI cost *)
    l "mpisim.calls" "count";
    l "mpisim.call_s" "s";
    l "sched.resumes" "count";
    l "sched.runnable_mean" "count";
    l "tsan.hb" "count";
    l "tsan.ha" "count";
    l "tsan.fiber_switches" "count";
    l "tsan.materialized_pages" "count";
    (* flavor ladder, untraced *)
    l "tsan.host_s" "s";
    l "must.host_s" "s";
    l "cusan.host_s" "s";
    l "flavor.overhead_x" "ratio";
    l "flavor.mem_x" "ratio";
    (* per-run fixed cost *)
    l "harness.setup_s" "s";
    l "harness.teardown_s" "s";
    l "cusan.pass_s" "s";
    (* explore engine *)
    l "explore.run_s" "s";
    l "explore.engine_s" "s";
    l "explore.branches" "count";
    l "explore.visited_hits" "count";
    l "explore.sleep_skips" "count";
    l "explore.distinct_ratio" "ratio" ~b:hi;
    (* static analysis stages *)
    l "kir.validate_s" "s";
    l "cusan.kernel_analysis_s" "s";
    l "cusan.race_analysis_s" "s";
    l "cusan.witness_s" "s";
    l "cusan.certificate_s" "s";
    l "cusan.certcheck_s" "s";
    l "cusan.repair_s" "s";
    l "cusan.witness_proved_ratio" "ratio";
    (* service overhead *)
    l "server.engine_ms" "ms";
    l "server.overhead_ms" "ms";
    l "server.cache_hit_ratio" "ratio" ~b:hi;
    l "server.journal_appends" "count";
    l "server.compactions" "count";
    l "server.shed" "count";
    (* remainder and the profile itself *)
    l "host.other_s" "s";
    l "trace.wall_s" "s";
    l "trace.overhead_pct" "%";
  ]

let find_e2e name = List.find_opt (fun m -> m.name = name) e2e
let names = List.map (fun m -> m.name) e2e @ List.map (fun l -> l.lname) layers

(* Unit and direction of any metric the code emits. *)
let describe name =
  match find_e2e name with
  | Some m -> (m.unit_, m.better)
  | None -> (
      match List.find_opt (fun l -> l.lname = name) layers with
      | Some l -> (l.lunit, l.lbetter)
      | None -> invalid_arg ("unknown metric " ^ name))

let unit_of name = fst (describe name)

(* --- BENCHMARK.json ---------------------------------------------------- *)

module J = Reporting.Mjson

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spec_names key doc =
  match J.member key doc with
  | Some (J.List xs) ->
      List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_str) xs
  | _ -> []

let spec_workloads doc = spec_names "workloads" doc

(* Every name listed is emitted and every emitted name is listed, with
   matching unit and direction. Returns the first mismatch. *)
let check_spec doc =
  let listed key = match J.member key doc with Some (J.List xs) -> xs | _ -> [] in
  let field k m = Option.bind (J.member k m) J.to_str in
  let entry key name =
    List.find_opt (fun m -> field "name" m = Some name) (listed key)
  in
  let dir = function Stats.Lower -> "lower" | Stats.Higher -> "higher" in
  let check key ours =
    let theirs = spec_names key doc in
    match List.find_opt (fun (n, _, _) -> not (List.mem n theirs)) ours with
    | Some (n, _, _) -> Error (Fmt.str "%s metric %s is not listed in %s" key n key)
    | None -> (
        match
          List.find_opt (fun n -> not (List.exists (fun (o, _, _) -> o = n) ours)) theirs
        with
        | Some n -> Error (Fmt.str "%s lists %s, which no run emits" key n)
        | None ->
            List.fold_left
              (fun acc (n, u, b) ->
                match (acc, entry key n) with
                | Error _, _ | _, None -> acc
                | Ok (), Some m ->
                    if field "unit" m <> Some u then
                      Error (Fmt.str "%s: unit differs from the code (%s)" n u)
                    else if field "better" m <> Some (dir b) then
                      Error (Fmt.str "%s: direction differs from the code" n)
                    else Ok ())
              (Ok ()) ours)
  in
  match check "end_to_end" (List.map (fun m -> (m.name, m.unit_, m.better)) e2e) with
  | Error _ as e -> e
  | Ok () ->
      check "per_layer" (List.map (fun l -> (l.lname, l.lunit, l.lbetter)) layers)

let load_spec path =
  match J.of_string (read_file path) with
  | Ok doc -> Ok doc
  | Error e -> Error (Fmt.str "%s: %s" path e)
  | exception Sys_error e -> Error e

let spec_bound doc name =
  let xs = match J.member "end_to_end" doc with Some (J.List xs) -> xs | _ -> [] in
  List.find_map
    (fun m ->
      if Option.bind (J.member "name" m) J.to_str = Some name then
        Option.bind (J.member "bound" m) J.to_float
      else None)
    xs
