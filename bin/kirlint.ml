(* kirlint: static lint for KIR device modules, the compile-time
   counterpart of the dynamic testsuite. For every kernel entry point it
   runs the IR validator (well-formedness + barrier placement), the
   pointer-argument access analysis the CuSan pass embeds at launch
   sites, and the barrier-aware intra-kernel race analysis.

   The default target set is the device code of the example/app suite
   (jacobi, tealeaf, pingpong, the cutests kernels); these are expected
   to be free of must-races, and kirlint exits 1 if one appears — the
   CI job runs exactly that as a regression gate. May-races are
   reported but do not fail the lint: they mark indexing the analysis
   cannot prove safe (symbolic strides, loads as indices).

   --corpus lints the seeded ground-truth corpus instead
   (Testsuite.Corpus): every entry's classification is checked against
   its expected verdict, and because the corpus contains must-racy
   kernels the run exits 1 — CI asserts that too, proving the gate
   actually fires.

   --witness upgrades the pipeline from "report" to "prove": every race
   candidate is handed to the witness solver (Cusan.Witness), which
   searches for a concrete thread pair / launch width / parameter
   valuation and validates it by replaying exactly those two threads
   through the interpreter. Validated candidates become proved-races
   (and gate the exit code, may or must); a must the replay cannot
   validate is downgraded to a may with the solver's diagnostic. In
   corpus mode the proved/unproved split is checked against the seeded
   [proves] ground truth.

   --certify FILE emits DRF certificates (schema kirlint-cert/1) for
   the race-free targets: the access set with its symbolic coefficients
   plus one disjointness fact per access pair. Each certificate is
   re-validated through the independent checker (Cusan.Certcheck) from
   the serialized JSON bytes — a re-check failure fails the lint.

   --suggest-fixes runs barrier repair (Cusan.Repair) on every target
   with provable races: a minimal, interpreter-verified set of
   __syncthreads() insertion points, checked against the corpus
   [repair] ground truth in corpus mode.

   --suppress FILE reads TSan-suppressions syntax (race:PATTERN);
   targets whose id or race descriptions match a pattern still print
   but no longer affect the exit status — the escape hatch for
   known-racy demo kernels.

   --json FILE writes a "kirlint/1" document ("kirlint/2" when any of
   the proving flags is active); --junit FILE writes JUnit XML
   (classname KirLint); --only LIST filters targets by comma-separated
   substrings; --list prints the selected target ids after filtering. *)

module V = Kir.Validate
module KA = Cusan.Kernel_analysis
module RA = Cusan.Race_analysis
module W = Cusan.Witness
module Corpus = Testsuite.Corpus

let usage =
  "usage: kirlint [options]\n\n\
   exit status: 0 clean, 1 must- or proved-races / invalid modules /\n\
  \             corpus mismatch / certificate re-check failure,\n\
  \             2 usage error\n\n\
   options:"

(* --- targets ------------------------------------------------------------- *)

type target = {
  id : string;  (* "suite/kernel" *)
  m : Kir.Ir.modul;
  entry : string;
  gt : Corpus.entry option;  (* ground truth in corpus mode *)
}

let expect_of t = Option.map (fun (e : Corpus.entry) -> e.Corpus.expect) t.gt

let default_targets () =
  let of_module suite (m : Kir.Ir.modul) =
    List.map
      (fun entry -> { id = suite ^ "/" ^ entry; m; entry; gt = None })
      m.Kir.Ir.kernels
  in
  of_module "jacobi" Apps.Jacobi.device_module
  @ of_module "tealeaf" Apps.Tealeaf.device_module
  @ of_module "pingpong" Apps.Pingpong.fill_src
  @ of_module "cutests" Testsuite.Cases.device_module

let corpus_targets () =
  List.map
    (fun (e : Corpus.entry) ->
      { id = "corpus/" ^ e.Corpus.name; m = e.Corpus.m; entry = e.Corpus.entry;
        gt = Some e })
    Corpus.all

(* --- lint ---------------------------------------------------------------- *)

type lint = {
  target : target;
  valid : (unit, string) result;
  params : (string * string) list;  (* (source name, R|W|RW|unused|scalar) *)
  races : RA.race list;
  proofs : (RA.race * W.outcome) list option;
      (* witness mode: one solver outcome per race, in race order *)
  fix : Cusan.Repair.outcome option;  (* --suggest-fixes, valid targets *)
  suppressed : bool;
}

let lint_target ~witness ~fixes (t : target) =
  match V.check_module t.m with
  | exception V.Invalid msg ->
      { target = t; valid = Error msg; params = []; races = []; proofs = None;
        fix = None; suppressed = false }
  | () ->
      let f = List.find (fun f -> f.Kir.Ir.fname = t.entry) t.m.Kir.Ir.funcs in
      let summary = KA.analyze t.m ~entry:t.entry in
      let params =
        List.mapi
          (fun i (pname, _ty) ->
            let acc =
              if i >= Array.length summary then "scalar"
              else
                match summary.(i) with
                | None -> "scalar"
                | Some a -> (
                    match KA.as_kernel_access a with
                    | None -> "unused"
                    | Some k -> Cudasim.Kernel.access_str k)
            in
            (pname, acc))
          f.Kir.Ir.params
      in
      let races = RA.analyze t.m ~entry:t.entry in
      let proofs =
        if witness then
          Some (List.map (fun r -> (r, W.prove t.m ~entry:t.entry r)) races)
        else None
      in
      let fix =
        if fixes then Some (Cusan.Repair.suggest t.m ~entry:t.entry) else None
      in
      { target = t; valid = Ok (); params; races; proofs; fix;
        suppressed = false }

let is_proved = function W.Proved _ -> true | W.Unproved _ -> false

let has_proved (l : lint) =
  match l.proofs with
  | None -> false
  | Some ps -> List.exists (fun (_, o) -> is_proved o) ps

(* Verdicts that gate the exit status: proved races once the witness
   engine has spoken, static musts otherwise. *)
let gating_races (l : lint) =
  match l.proofs with None -> RA.has_must l.races | Some _ -> has_proved l

(* Did the target meet expectations? Outside corpus mode that means
   "valid and free of gating races"; in corpus mode the static
   classification must match the seeded ground truth exactly, and the
   witness/repair outcomes (when those stages ran) must match the
   seeded [proves]/[repair] fields. *)
let ok (l : lint) =
  let static_ok =
    match expect_of l.target with
    | None -> (
        match l.valid with
        | Ok () -> not (gating_races l)
        | Error _ -> false)
    | Some Corpus.Invalid -> Result.is_error l.valid
    | Some Corpus.Must -> Result.is_ok l.valid && RA.has_must l.races
    | Some Corpus.May ->
        Result.is_ok l.valid && l.races <> [] && not (RA.has_must l.races)
    | Some Corpus.Clean -> Result.is_ok l.valid && l.races = []
  in
  let witness_ok =
    match (l.proofs, l.target.gt) with
    | None, _ | Some _, None -> true
    | Some _, Some e -> has_proved l = e.Corpus.proves
  in
  let repair_ok =
    match (l.fix, l.target.gt) with
    | None, _ | Some _, None -> true
    | Some f, Some e -> (
        match (f, e.Corpus.repair) with
        | Cusan.Repair.Already_clean, Corpus.Nothing_to_fix -> true
        | Cusan.Repair.Fixed fx, Corpus.Fixable pts ->
            fx.Cusan.Repair.fpoints = pts
        | Cusan.Repair.Unrepairable _, Corpus.Unfixable -> true
        | _ -> false)
  in
  static_ok && witness_ok && repair_ok

let classification (l : lint) =
  match l.valid with
  | Error msg -> "invalid: " ^ msg
  | Ok () -> (
      if l.races = [] then "clean"
      else
        match l.proofs with
        | None ->
            let musts =
              List.length
                (List.filter (fun r -> r.RA.verdict = RA.Must) l.races)
            in
            let mays = List.length l.races - musts in
            String.concat ", "
              ((if musts > 0 then [ Fmt.str "%d must-race(s)" musts ] else [])
              @ if mays > 0 then [ Fmt.str "%d may-race(s)" mays ] else [])
        | Some ps ->
            let proved =
              List.length (List.filter (fun (_, o) -> is_proved o) ps)
            in
            let mays = List.length ps - proved in
            String.concat ", "
              ((if proved > 0 then [ Fmt.str "%d proved-race(s)" proved ]
                else [])
              @ if mays > 0 then [ Fmt.str "%d may-race(s)" mays ] else []))

(* --- output -------------------------------------------------------------- *)

let describe_as verdict (r : RA.race) =
  Fmt.str "%s %s race on arg%d '%s' (phase %d): %s vs %s" verdict r.RA.kinds
    r.RA.param r.RA.pname r.RA.phase r.RA.site1 r.RA.site2

let race_line (l : lint) i (r : RA.race) =
  match l.proofs with
  | None -> RA.describe r
  | Some ps -> (
      match snd (List.nth ps i) with
      | W.Proved w ->
          Fmt.str "%s [witness: %s]" (describe_as "proved" r) (W.describe w)
      | W.Unproved why when r.RA.verdict = RA.Must ->
          Fmt.str "%s [downgraded from must: %s]" (describe_as "may" r) why
      | W.Unproved _ -> RA.describe r)

let print_human lints =
  List.iter
    (fun l ->
      let expect_note =
        match expect_of l.target with
        | None -> ""
        | Some e ->
            Fmt.str " [expect %s: %s]" (Corpus.expect_str e)
              (if ok l then "ok" else "MISMATCH")
      in
      let suppress_note = if l.suppressed then " [suppressed]" else "" in
      Fmt.pr "%-38s %s%s%s@." l.target.id (classification l) expect_note
        suppress_note;
      if l.valid = Ok () && l.params <> [] then
        Fmt.pr "    args: %s@."
          (String.concat " "
             (List.map (fun (n, a) -> Fmt.str "%s=%s" n a) l.params));
      List.iteri (fun i r -> Fmt.pr "    %s@." (race_line l i r)) l.races;
      match l.fix with
      | None | Some Cusan.Repair.Already_clean -> ()
      | Some (Cusan.Repair.Fixed f) ->
          Fmt.pr "    fix: insert %d barrier(s) at gap(s) [%s]@."
            (List.length f.Cusan.Repair.fpoints)
            (String.concat "; "
               (List.map string_of_int f.Cusan.Repair.fpoints));
          List.iter
            (fun p -> Fmt.pr "      %s@." p)
            f.Cusan.Repair.fpreviews
      | Some (Cusan.Repair.Unrepairable why) ->
          Fmt.pr "    fix: unrepairable (%s)@." why)
    lints

let json_of_lint ~v2 (l : lint) : Reporting.Mjson.t =
  let open Reporting.Mjson in
  let race_json i (r : RA.race) =
    let base_verdict =
      match r.RA.verdict with RA.Must -> "must" | RA.May -> "may"
    in
    let verdict, extra =
      if not v2 then (base_verdict, [])
      else
        match l.proofs with
        | None -> (base_verdict, [ ("witness", Null) ])
        | Some ps -> (
            match snd (List.nth ps i) with
            | W.Proved w ->
                ( "proved",
                  [
                    ("witness",
                     Obj
                       [
                         ("tid1", Int w.W.wtid1);
                         ("tid2", Int w.W.wtid2);
                         ("ntid", Int w.W.wntid);
                         ("params",
                          Obj
                            (List.map
                               (fun (n, v) -> (n, Int v))
                               w.W.wparams));
                         ("byte", Int w.W.wbyte);
                         ("phase", Int w.W.wphase);
                         ("kinds", Str w.W.wkinds);
                       ]);
                  ] )
            | W.Unproved why ->
                ( "may",
                  [
                    ("witness", Null);
                    ("downgraded", Bool (r.RA.verdict = RA.Must));
                    ("unproved", Str why);
                  ] ))
    in
    Obj
      ([
         ("verdict", Str verdict);
         ("kinds", Str r.RA.kinds);
         ("param", Int r.RA.param);
         ("pname", Str r.RA.pname);
         ("phase", Int r.RA.phase);
         ("site1", Str r.RA.site1);
         ("site2", Str r.RA.site2);
         ("description", Str (RA.describe r));
       ]
      @ extra)
  in
  let fix_json =
    if not v2 then []
    else
      match l.fix with
      | None -> []
      | Some Cusan.Repair.Already_clean ->
          [ ("fix", Obj [ ("status", Str "already-clean") ]) ]
      | Some (Cusan.Repair.Fixed f) ->
          [
            ("fix",
             Obj
               [
                 ("status", Str "fixed");
                 ("points",
                  List
                    (List.map (fun p -> Int p) f.Cusan.Repair.fpoints));
                 ("previews",
                  List
                    (List.map
                       (fun p -> Str p)
                       f.Cusan.Repair.fpreviews));
               ]);
          ]
      | Some (Cusan.Repair.Unrepairable why) ->
          [
            ("fix",
             Obj [ ("status", Str "unrepairable"); ("reason", Str why) ]);
          ]
  in
  Obj
    ([
       ("name", Str l.target.id);
       ("entry", Str l.target.entry);
       ("valid", Bool (Result.is_ok l.valid));
       ("error", match l.valid with Ok () -> Null | Error m -> Str m);
       ("params",
        List
          (List.map
             (fun (n, a) -> Obj [ ("name", Str n); ("access", Str a) ])
             l.params));
       ("races", List (List.mapi race_json l.races));
       ("ok", Bool (ok l));
     ]
    @ fix_json
    @ (if v2 then [ ("suppressed", Bool l.suppressed) ] else [])
    @
    match expect_of l.target with
    | None -> []
    | Some e -> [ ("expect", Str (Corpus.expect_str e)) ])

let json ~corpus ~v2 lints : Reporting.Mjson.t =
  let open Reporting.Mjson in
  let musts =
    List.fold_left
      (fun acc l ->
        acc + List.length (List.filter (fun r -> r.RA.verdict = RA.Must) l.races))
      0 lints
  in
  let proved =
    List.fold_left
      (fun acc l ->
        acc
        + match l.proofs with
          | None -> 0
          | Some ps -> List.length (List.filter (fun (_, o) -> is_proved o) ps))
      0 lints
  in
  Obj
    ([
       ("schema", Str (if v2 then "kirlint/2" else "kirlint/1"));
       ("corpus", Bool corpus);
       ("total", Int (List.length lints));
       ("ok", Int (List.length (List.filter ok lints)));
       ("musts", Int musts);
     ]
    @ (if v2 then
         [
           ("proved", Int proved);
           ("suppressed",
            Int (List.length (List.filter (fun l -> l.suppressed) lints)));
         ]
       else [])
    @ [ ("targets", List (List.map (json_of_lint ~v2) lints)) ])

let junit lints : string =
  let cases =
    List.map
      (fun (l : lint) ->
        let failure =
          if ok l then None
          else
            let body =
              String.concat "\n"
                ((match l.valid with
                 | Error msg -> [ "invalid module: " ^ msg ]
                 | Ok () -> [])
                @ List.map RA.describe l.races)
            in
            Some (classification l, body)
        in
        {
          Reporting.Junit.classname = "KirLint";
          name = l.target.id;
          time_s = 0.;
          failure;
        })
      lints
  in
  Reporting.Junit.to_string ~suite_name:"kirlint" cases

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- certification ------------------------------------------------------- *)

(* Build DRF certificates for the race-free targets and re-validate
   each one through the independent checker, from the serialized JSON
   bytes — never the in-memory analysis structures. Returns the
   kirlint-cert/1 document and the re-check failures (which fail the
   lint: the analysis and the checker disagreeing is a bug in one of
   them). *)
let certify lints =
  let open Reporting.Mjson in
  let certified = ref [] and uncertified = ref [] and failures = ref [] in
  List.iter
    (fun (l : lint) ->
      match l.valid with
      | Error msg ->
          uncertified := (l.target.id, "invalid module: " ^ msg) :: !uncertified
      | Ok () -> (
          match Cusan.Certificate.build l.target.m ~entry:l.target.entry with
          | Error reason -> uncertified := (l.target.id, reason) :: !uncertified
          | Ok cert -> (
              let doc = Cusan.Certificate.to_json cert in
              (* round-trip through the serialized bytes so the checker
                 sees exactly what a consumer would read from disk *)
              match of_string (to_string_pretty doc) with
              | Error e ->
                  failures :=
                    (l.target.id, "serialization round-trip: " ^ e)
                    :: !failures
              | Ok reread -> (
                  match
                    Cusan.Certcheck.check l.target.m ~entry:l.target.entry
                      reread
                  with
                  | Ok () -> certified := (l.target.id, doc) :: !certified
                  | Error e -> failures := (l.target.id, e) :: !failures))))
    lints;
  let doc =
    Obj
      [
        ("schema", Str "kirlint-cert/1");
        ("total", Int (List.length lints));
        ("certified", Int (List.length !certified));
        ("uncertified",
         List
           (List.rev_map
              (fun (n, r) -> Obj [ ("name", Str n); ("reason", Str r) ])
              !uncertified));
        ("certificates",
         List
           (List.rev_map
              (fun (n, c) -> Obj [ ("name", Str n); ("cert", c) ])
              !certified));
      ]
  in
  (doc, List.length !certified, List.rev !failures)

(* --- main ---------------------------------------------------------------- *)

let contains ~sub name =
  let nl = String.length name and sl = String.length sub in
  let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
  at 0

let () =
  let corpus = ref false
  and only = ref [] (* comma-separated substrings; [] = everything *)
  and list_only = ref false
  and witness = ref false
  and certify_out = ref None
  and fixes = ref false
  and suppress = ref None
  and json_out = ref None
  and junit_out = ref None in
  Trace.Cli.parse ~prog:"kirlint" ~usage
    [
      ( "--corpus",
        Arg.Set corpus,
        " lint the seeded ground-truth corpus (has must-races: exits 1)" );
      Trace.Cli.value "--only"
        (fun v ->
          let subs = String.split_on_char ',' v in
          if List.mem "" subs then
            raise
              (Arg.Bad
                 "--only takes a comma-separated list of non-empty substrings");
          only := !only @ subs)
        "LIST lint targets whose id contains one of these substrings";
      ("--list", Arg.Set list_only, " print the selected target ids and exit");
      ( "--witness",
        Arg.Set witness,
        " prove races by replayed witnesses; unproved musts become mays" );
      Trace.Cli.string "--certify" certify_out
        "FILE write re-checked DRF certificates (schema kirlint-cert/1)";
      ( "--suggest-fixes",
        Arg.Set fixes,
        " propose minimal verified barrier insertions" );
      Trace.Cli.string "--suppress" suppress
        "FILE race:PATTERN lines; matching targets stop gating the exit";
      Trace.Cli.string "--json" json_out
        "FILE write results as JSON (kirlint/1; kirlint/2 when proving)";
      Trace.Cli.string "--junit" junit_out "FILE write results as JUnit XML";
    ];
  let targets =
    let all = if !corpus then corpus_targets () else default_targets () in
    match !only with
    | [] -> all
    | subs ->
        List.filter
          (fun t -> List.exists (fun sub -> contains ~sub t.id) subs)
          all
  in
  if targets = [] then begin
    Fmt.epr "kirlint: no target matches --only %s@."
      (String.concat "," !only);
    exit 2
  end;
  if !list_only then begin
    List.iter (fun t -> Fmt.pr "%s@." t.id) targets;
    exit 0
  end;
  let patterns =
    match !suppress with
    | None -> []
    | Some path -> (
        match read_file path with
        | content -> Tsan.Suppress.parse content
        | exception Sys_error e -> Trace.Cli.usage_error ("--suppress: " ^ e))
  in
  let lints =
    List.map
      (fun t ->
        let l = lint_target ~witness:!witness ~fixes:!fixes t in
        let suppressed =
          List.exists
            (fun pat ->
              contains ~sub:pat l.target.id
              || List.exists (fun r -> contains ~sub:pat (RA.describe r))
                   l.races)
            patterns
        in
        { l with suppressed })
      targets
  in
  print_human lints;
  let failed = List.filter (fun l -> not (ok l)) lints in
  let gate_failed = List.filter (fun l -> not l.suppressed) failed in
  let gate_races =
    List.exists (fun l -> (not l.suppressed) && gating_races l) lints
  in
  let cert_failures =
    match !certify_out with
    | None -> []
    | Some path ->
        let doc, ncerts, failures = certify lints in
        write_file path (Reporting.Mjson.to_string_pretty doc);
        Fmt.pr "wrote %s (%d certificate(s), %d uncertified)@." path ncerts
          (List.length lints - ncerts);
        List.iter
          (fun (n, e) ->
            Fmt.epr "kirlint: certificate re-check FAILED for %s: %s@." n e)
          failures;
        failures
  in
  let v2 = !witness || !fixes || !suppress <> None in
  (match !json_out with
  | None -> ()
  | Some path ->
      write_file path
        (Reporting.Mjson.to_string_pretty (json ~corpus:!corpus ~v2 lints));
      Fmt.pr "wrote %s@." path);
  (match !junit_out with
  | None -> ()
  | Some path ->
      write_file path (junit lints);
      Fmt.pr "wrote %s@." path);
  let nsupp = List.length (List.filter (fun l -> l.suppressed) lints) in
  Fmt.pr "@.%d of %d kernels %s%s%s@."
    (List.length lints - List.length failed)
    (List.length lints)
    (if !corpus then "classified as expected" else "lint clean")
    (if gate_races then
       if !witness then " (proved-races present)" else " (must-races present)"
     else "")
    (if nsupp > 0 then Fmt.str " (%d suppressed)" nsupp else "");
  if gate_failed <> [] || gate_races || cert_failures <> [] then exit 1
