(* Bench-regression comparison: the logic behind `benchdiff`. A bench
   JSON artifact (see Bench's --json) carries overhead *ratios* —
   flavor-runtime over vanilla — which are far more stable across
   machines than absolute times, so CI compares ratios of a fresh quick
   run against a committed baseline and gates on relative drift. *)

type cell = { key : string; value : float }

(* The correctness-matrix summary (bench target "suite"). *)
type suite = { pass : int; total : int }

type outcome =
  | Ok_cell of { key : string; base : float; run : float; drift_pct : float }
  | Regressed of { key : string; base : float; run : float; drift_pct : float }
  | Missing of { key : string; base : float }
      (* present in baseline, absent from the run: treated as a failure
         so a silently shrinking bench can't pass the gate *)
  | Suite of { base : suite; run : suite option }
      (* a count, not a ratio: fails when the run passes fewer cases,
         runs fewer, or has no suite summary at all *)

(* Extract comparable overhead cells from a bench JSON document.
   Recognized shapes (fields produced by bench/main.exe --json):
   - fig10: [{app, flavor, rel, ...}]   -> "fig10/<app>/<flavor>"
   - fig11: [{app, flavor, rel, ...}]   -> "fig11/<app>/<flavor>"
   - fig12: [{nx, ny, rel, ...}]        -> "fig12/<nx>x<ny>"
   - micro: [{name, ns}]                -> "micro/<name>"           *)
let cells_of_json (j : Mjson.t) : cell list =
  (* fig10 (runtime overhead) and fig11 (memory overhead) rows share a
     shape: {app, flavor, rel}. *)
  let app_flavor_cells fig =
    match Mjson.(member fig j |> Option.map to_list) with
    | Some (Some rows) ->
        List.filter_map
          (fun row ->
            match
              ( Mjson.(member "app" row |> Option.map to_str),
                Mjson.(member "flavor" row |> Option.map to_str),
                Mjson.(member "rel" row |> Option.map to_float) )
            with
            | Some (Some app), Some (Some flavor), Some (Some rel) ->
                Some
                  { key = Printf.sprintf "%s/%s/%s" fig app flavor; value = rel }
            | _ -> None)
          rows
    | _ -> []
  in
  let fig10 = app_flavor_cells "fig10" in
  let fig11 = app_flavor_cells "fig11" in
  let fig12 =
    match Mjson.(member "fig12" j |> Option.map to_list) with
    | Some (Some rows) ->
        List.filter_map
          (fun row ->
            match
              ( Mjson.(member "nx" row |> Option.map to_int),
                Mjson.(member "ny" row |> Option.map to_int),
                Mjson.(member "rel" row |> Option.map to_float) )
            with
            | Some (Some nx), Some (Some ny), Some (Some rel) ->
                Some { key = Printf.sprintf "fig12/%dx%d" nx ny; value = rel }
            | _ -> None)
          rows
    | _ -> []
  in
  let micro =
    match Mjson.(member "micro" j |> Option.map to_list) with
    | Some (Some rows) ->
        List.filter_map
          (fun row ->
            match
              ( Mjson.(member "name" row |> Option.map to_str),
                Mjson.(member "ns" row |> Option.map to_float) )
            with
            | Some (Some name), Some (Some ns) ->
                Some { key = "micro/" ^ name; value = ns }
            | _ -> None)
          rows
    | _ -> []
  in
  fig10 @ fig11 @ fig12 @ micro

(* Cell-key families, selectable with benchdiff's --mode. Macro cells
   are overhead *ratios* (stable across machines, tight thresholds);
   micro cells are absolute ns/op (noisier, gated loosely to catch
   order-of-magnitude regressions only). Comparing them under one
   threshold would either mute the macro gate or make micro flaky. *)
type mode = Macro | Micro | All

let mode_of_string = function
  | "macro" -> Some Macro
  | "micro" -> Some Micro
  | "all" -> Some All
  | _ -> None

let in_mode mode (c : cell) =
  let is_micro = String.length c.key >= 6 && String.sub c.key 0 6 = "micro/" in
  match mode with All -> true | Micro -> is_micro | Macro -> not is_micro

let filter_mode mode cells = List.filter (in_mode mode) cells

(* Compare a run against a baseline. A cell regresses when its ratio
   grew by more than [threshold_pct] percent over the baseline value;
   shrinking (getting faster) never fails. Baseline cells missing from
   the run fail; run cells absent from the baseline are ignored (new
   benchmarks don't gate until the baseline is refreshed). *)
let compare ~threshold_pct ~(baseline : cell list) ~(run : cell list) :
    outcome list =
  List.map
    (fun b ->
      match List.find_opt (fun r -> r.key = b.key) run with
      | None -> Missing { key = b.key; base = b.value }
      | Some r ->
          let drift_pct =
            if b.value = 0. then if r.value = 0. then 0. else infinity
            else (r.value -. b.value) /. b.value *. 100.
          in
          if drift_pct > threshold_pct then
            Regressed { key = b.key; base = b.value; run = r.value; drift_pct }
          else Ok_cell { key = b.key; base = b.value; run = r.value; drift_pct })
    baseline

(* Run cells with no baseline counterpart. [compare] ignores these so
   new benchmarks don't fail the drift gate, but leaving them invisible
   lets a baseline quietly rot; benchdiff surfaces them by name as an
   inputs problem (exit 2: refresh the committed baseline). *)
let unbaselined ~(baseline : cell list) ~(run : cell list) : cell list =
  List.filter
    (fun r -> not (List.exists (fun b -> b.key = r.key) baseline))
    run

let suite_of_json (j : Mjson.t) : suite option =
  match Mjson.member "suite" j with
  | None -> None
  | Some s -> (
      match
        ( Mjson.(member "pass" s |> Option.map to_int),
          Mjson.(member "total" s |> Option.map to_int) )
      with
      | Some (Some pass), Some (Some total) -> Some { pass; total }
      | _ -> None)

(* The suite gate: none without a baselined summary, else one [Suite]
   outcome. Drift thresholds do not apply to a pass count. *)
let compare_suite ~(baseline : suite option) ~(run : suite option) :
    outcome list =
  match baseline with None -> [] | Some base -> [ Suite { base; run } ]

let failed = function
  | Ok_cell _ -> false
  | Regressed _ | Missing _ -> true
  | Suite { base; run = Some r } -> r.pass < base.pass || r.total < base.total
  | Suite { run = None; _ } -> true

let any_failed outcomes = List.exists failed outcomes

let pp_outcome ppf = function
  | Ok_cell { key; base; run; drift_pct } ->
      Fmt.pf ppf "ok        %-24s %8.3fx -> %8.3fx (%+.1f%%)" key base run
        drift_pct
  | Regressed { key; base; run; drift_pct } ->
      Fmt.pf ppf "REGRESSED %-24s %8.3fx -> %8.3fx (%+.1f%%)" key base run
        drift_pct
  | Missing { key; base } ->
      Fmt.pf ppf "MISSING   %-24s %8.3fx -> (absent from run)" key base
  | Suite { base; run = None } ->
      Fmt.pf ppf "MISSING   %-24s %d/%d -> (absent from run)" "suite" base.pass
        base.total
  | Suite { base; run = Some r } as o ->
      Fmt.pf ppf "%-9s %-24s %d/%d -> %d/%d"
        (if failed o then "REGRESSED" else "ok")
        "suite" base.pass base.total r.pass r.total
