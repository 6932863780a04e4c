(* Job execution engine: one function from a protocol job to a
   deterministic Mjson result, runnable on any pool worker domain (all
   simulator state is domain-local, see lib/pool).

   Determinism is a load-bearing property here, twice over: it is what
   makes the daemon's content-addressed result cache *correct* (same
   job key, same result), and it is what the chaos acceptance test pins
   — a verdict served by the daemon must be byte-identical to the same
   job run in-process by the batch CLI path. Soak results therefore
   contain no wall-clock fields; timing lives in the reply envelope
   (["elapsed_s"]), which is never compared or cached.

   Exceptions deliberately escape this module: crash isolation is the
   daemon's job (it reaps the worker's failure into a post-mortem
   reply), and the engine stays an ordinary library function the batch
   tools and tests can call directly. *)

module Mjson = Reporting.Mjson
module V = Kir.Validate
module RA = Cusan.Race_analysis
module Corpus = Testsuite.Corpus

(* Default step budget for a job's scheduler watchdog: generous enough
   for every case in the matrix (the fault soak runs at 100k), small
   enough that a wedged schedule resolves in well under a second. *)
let default_watchdog = 200_000

(* --- lint targets -------------------------------------------------------- *)

type lint_target = {
  id : string;
  m : Kir.Ir.modul;
  entry : string;
  expect : Corpus.expect option;
}

(* The kirlint universe: the app/example device modules plus the seeded
   ground-truth corpus, addressable by the same ids kirlint prints.
   Built once at module initialization, from modules that already
   exist, and only read afterwards, so every worker domain shares the
   list and its lookup table. *)
let lint_targets =
  let of_module suite (m : Kir.Ir.modul) =
    List.map
      (fun entry -> { id = suite ^ "/" ^ entry; m; entry; expect = None })
      m.Kir.Ir.kernels
  in
  of_module "jacobi" Apps.Jacobi.device_module
  @ of_module "tealeaf" Apps.Tealeaf.device_module
  @ of_module "pingpong" Apps.Pingpong.fill_src
  @ of_module "cutests" Testsuite.Cases.device_module
  @ List.map
      (fun (e : Corpus.entry) ->
        { id = "corpus/" ^ e.Corpus.name; m = e.Corpus.m;
          entry = e.Corpus.entry; expect = Some e.Corpus.expect })
      Corpus.all

let lint_by_id =
  let t = Hashtbl.create 32 in
  List.iter (fun l -> if not (Hashtbl.mem t l.id) then Hashtbl.add t l.id l) lint_targets;
  t

let lint_target_ids () = List.map (fun t -> t.id) lint_targets

let lint_json (t : lint_target) : Mjson.t =
  let valid, races =
    match V.check_module t.m with
    | exception V.Invalid msg -> (Error msg, [])
    | () -> (Ok (), RA.analyze t.m ~entry:t.entry)
  in
  let musts = List.filter (fun r -> r.RA.verdict = RA.Must) races in
  let classification =
    match valid with
    | Error msg -> "invalid: " ^ msg
    | Ok () ->
        if races = [] then "clean"
        else
          String.concat ", "
            ((if musts <> [] then
                [ Printf.sprintf "%d must-race(s)" (List.length musts) ]
              else [])
            @
            if List.length races > List.length musts then
              [ Printf.sprintf "%d may-race(s)"
                  (List.length races - List.length musts) ]
            else [])
  in
  let ok =
    match t.expect with
    | None -> Result.is_ok valid && musts = []
    | Some Corpus.Invalid -> Result.is_error valid
    | Some Corpus.Must -> Result.is_ok valid && musts <> []
    | Some Corpus.May -> Result.is_ok valid && races <> [] && musts = []
    | Some Corpus.Clean -> Result.is_ok valid && races = []
  in
  Mjson.Obj
    ([
       ("kind", Mjson.Str "lint");
       ("name", Mjson.Str t.id);
       ("entry", Mjson.Str t.entry);
       ("valid", Mjson.Bool (Result.is_ok valid));
       ("error",
        match valid with Ok () -> Mjson.Null | Error m -> Mjson.Str m);
       ("classification", Mjson.Str classification);
       ("races",
        Mjson.List
          (List.map
             (fun (r : RA.race) ->
               Mjson.Obj
                 [
                   ("verdict",
                    Mjson.Str
                      (match r.RA.verdict with RA.Must -> "must" | RA.May -> "may"));
                   ("description", Mjson.Str (RA.describe r));
                 ])
             races));
       ("ok", Mjson.Bool ok);
     ]
    @
    match t.expect with
    | None -> []
    | Some e -> [ ("expect", Mjson.Str (Corpus.expect_str e)) ])

(* --- soak ---------------------------------------------------------------- *)

let stall_json (stall : Sched.Scheduler.stall option) : Mjson.t =
  match stall with
  | None -> Mjson.Null
  | Some s ->
      Mjson.Obj
        [
          ("steps", Mjson.Int s.Sched.Scheduler.stall_steps);
          ("blocked",
           Mjson.List
             (List.map
                (fun (task, why) ->
                  Mjson.Obj [ ("task", Mjson.Str task); ("on", Mjson.Str why) ])
                s.Sched.Scheduler.stall_blocked));
          ("spinning",
           Mjson.List
             (List.map (fun t -> Mjson.Str t) s.Sched.Scheduler.stall_spinning));
        ]

let soak_case_ids () =
  List.map (fun (c : Testsuite.Cases.case) -> c.Testsuite.Cases.name)
    (Testsuite.Cases.all ())

(* The one-line command that replays this job through the batch CLI —
   the daemon's results stay auditable against cutests. *)
let soak_repro ~case ~seed ~faults =
  Printf.sprintf "dune exec bin/cutests.exe -- --only '%s'%s" case
    (match faults with
    | None -> ""
    | Some f -> Printf.sprintf " --seed %d --faults '%s'" seed f)

let soak_json ~case ~seed ~faults ~(v : Testsuite.Runner.verdict) : Mjson.t =
  let classification =
    match (v.Testsuite.Runner.case.Testsuite.Cases.expect,
           v.Testsuite.Runner.detected)
    with
    | Testsuite.Cases.Racy, true -> "race correctly reported"
    | Testsuite.Cases.Racy, false -> "race MISSED"
    | Testsuite.Cases.Clean, false -> "clean"
    | Testsuite.Cases.Clean, true -> "FALSE POSITIVE"
  in
  Mjson.Obj
    [
      ("kind", Mjson.Str "soak");
      ("name", Mjson.Str case);
      ("seed", Mjson.Int seed);
      ("faults",
       match faults with None -> Mjson.Null | Some f -> Mjson.Str f);
      ("expect",
       Mjson.Str
         (match v.Testsuite.Runner.case.Testsuite.Cases.expect with
         | Testsuite.Cases.Racy -> "racy"
         | Testsuite.Cases.Clean -> "clean"));
      ("detected", Mjson.Bool v.Testsuite.Runner.detected);
      ("pass", Mjson.Bool v.Testsuite.Runner.pass);
      ("classification", Mjson.Str classification);
      ("outcome",
       Mjson.Str
         (match v.Testsuite.Runner.stall with
         | Some _ -> "stalled"
         | None -> "completed"));
      ("stall", stall_json v.Testsuite.Runner.stall);
      ("injected", Mjson.Int v.Testsuite.Runner.injected);
      ("races", Mjson.Int (List.length v.Testsuite.Runner.reports));
      ("fault_log",
       Mjson.List
         (List.map
            (fun d ->
              Mjson.Str (Fmt.str "%a" Faultsim.Injector.pp_decision d))
            v.Testsuite.Runner.fault_log));
      ("failures",
       Mjson.List
         (List.map
            (fun (rank, why) ->
              Mjson.Obj [ ("rank", Mjson.Int rank); ("error", Mjson.Str why) ])
            v.Testsuite.Runner.failures));
      ("post_mortems",
       Mjson.List
         (List.map
            (fun (pm : Harness.Run.post_mortem) ->
              Mjson.Obj
                [
                  ("rank", Mjson.Int pm.Harness.Run.pm_rank);
                  ("site", Mjson.Str pm.Harness.Run.pm_site);
                  ("pending",
                   Mjson.List
                     (List.map (fun s -> Mjson.Str s) pm.Harness.Run.pm_pending));
                  ("unjoined",
                   Mjson.List
                     (List.map (fun s -> Mjson.Str s) pm.Harness.Run.pm_unjoined));
                  ("trace",
                   Mjson.List
                     (List.map (fun s -> Mjson.Str s) pm.Harness.Run.pm_trace));
                ])
            v.Testsuite.Runner.post_mortems));
      ("repro", Mjson.Str (soak_repro ~case ~seed ~faults));
    ]

(* --- bench --------------------------------------------------------------- *)

let bench_apps = [ "pingpong"; "jacobi"; "tealeaf" ]

(* Small fixed cells: sized so one job is O(100ms), the granularity a
   sustained-jobs/sec service wants. *)
let bench_app_fn = function
  | "pingpong" ->
      Some (Apps.Pingpong.app (Apps.Pingpong.config ~sizes:[ 1; 256; 4096 ] ~iters:4 ()))
  | "jacobi" ->
      Some
        (Apps.Jacobi.app (Apps.Jacobi.config ~nx:64 ~ny:64 ~iters:20 ~nranks:2 ()))
  | "tealeaf" ->
      Some
        (Apps.Tealeaf.app (Apps.Tealeaf.config ~nx:32 ~ny:32 ~steps:2 ~nranks:2 ()))
  | _ -> None

let bench_json ~app ~flavor ~(res : Harness.Run.result) : Mjson.t =
  Mjson.Obj
    [
      ("kind", Mjson.Str "bench");
      ("app", Mjson.Str app);
      ("flavor", Mjson.Str (Harness.Flavor.name res.Harness.Run.flavor));
      ("flavor_arg", Mjson.Str flavor);
      ("wall_s", Mjson.Float res.Harness.Run.wall_s);
      ("proc_s", Mjson.Float res.Harness.Run.proc_s);
      ("rss_bytes", Mjson.Int res.Harness.Run.rss_bytes);
      ("races", Mjson.Int (List.length res.Harness.Run.races));
      ("must_errors", Mjson.Int (List.length res.Harness.Run.must_errors));
      ("failures", Mjson.Int (List.length res.Harness.Run.failures));
      ("stalled", Mjson.Bool (res.Harness.Run.stall <> None));
    ]

(* --- dispatcher ---------------------------------------------------------- *)

exception Chaos_drill
(* what a [Boom] job raises: a stand-in for the unknown-unknown bug
   that will eventually escape a job, so crash isolation is exercised
   on every CI run instead of waiting for the real one *)

let () =
  Printexc.register_printer (function
    | Chaos_drill -> Some "Chaos_drill (deliberate crash requested by a boom job)"
    | _ -> None)

(* Bounded suggestions for an unknown id: enough to be useful, bounded
   so an error reply can never outgrow a frame. *)
let suggest ids =
  let shown = List.filteri (fun i _ -> i < 8) ids in
  String.concat ", " shown
  ^ if List.length ids > 8 then Printf.sprintf ", ... (%d total)" (List.length ids) else ""

let run_job ?(watchdog = default_watchdog) (job : Protocol.job) :
    (Mjson.t, string) result =
  match job with
  | Protocol.Boom -> raise Chaos_drill
  | Protocol.Lint { target } -> (
      match Hashtbl.find_opt lint_by_id target with
      | None ->
          Error
            (Printf.sprintf "no such lint target %S; known: %s" target
               (suggest (lint_target_ids ())))
      | Some t -> Ok (lint_json t))
  | Protocol.Soak { case; seed; faults } -> (
      match Testsuite.Cases.find case with
      | None ->
          Error
            (Printf.sprintf "no such testsuite case %S; known: %s" case
               (suggest (soak_case_ids ())))
      | Some c -> (
          match
            match faults with
            | None -> Ok None
            | Some spec -> (
                match Faultsim.Plan.parse_spec spec with
                | Error msg -> Error (Printf.sprintf "bad fault spec: %s" msg)
                | Ok (spec_seed, plan) ->
                    (* the job's seed wins over an embedded seed=N,
                       like --seed does in cutests *)
                    let seed =
                      if seed <> 0 then seed
                      else Option.value spec_seed ~default:0
                    in
                    Ok (Some (seed, plan)))
          with
          | Error e -> Error e
          | Ok faults_arg ->
              let v =
                Testsuite.Runner.run_case ~watchdog ?faults:faults_arg c
              in
              Ok (soak_json ~case ~seed ~faults ~v)))
  | Protocol.Bench { app; flavor } -> (
      match (bench_app_fn app, Harness.Flavor.of_string flavor) with
      | None, _ ->
          Error
            (Printf.sprintf "no such bench app %S; known: %s" app
               (suggest bench_apps))
      | _, None -> Error (Printf.sprintf "no such flavor %S" flavor)
      | Some f, Some fl ->
          let res = Harness.Run.run ~nranks:2 ~watchdog ~flavor:fl f in
          Ok (bench_json ~app ~flavor ~res))
  | Protocol.Spin { steps } ->
      (* Wedge drill: a single rank spins on the cooperative scheduler
         until the step budget fires. The daemon's watchdog still caps
         the budget, so even a hostile spin request is bounded. *)
      let budget = min steps watchdog in
      let res =
        Harness.Run.run ~nranks:1 ~watchdog:budget
          ~flavor:Harness.Flavor.Vanilla (fun _env ->
            while true do
              Sched.Scheduler.yield ()
            done)
      in
      Ok
        (Mjson.Obj
           [
             ("kind", Mjson.Str "spin");
             ("steps", Mjson.Int steps);
             ("budget", Mjson.Int budget);
             ("outcome",
              Mjson.Str
                (if res.Harness.Run.stall <> None then "stalled"
                 else "completed"));
             ("stall", stall_json res.Harness.Run.stall);
           ])
