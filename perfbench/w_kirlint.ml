(* The [kirlint] workload: the kirlint v2 stages over the 26 lint
   targets (the 14 app and testsuite kernels plus the 12-entry seeded
   corpus). Static only, no simulator; it reaches [Race_analysis]
   directly, where [cutests] reaches it through the compile pass. One
   operation is one kernel through every stage:

     Kir.Validate -> Kernel_analysis -> Race_analysis -> Witness.prove
     -> Certificate.build + Certcheck.check -> Repair.suggest *)

module RA = Cusan.Race_analysis
module W = Cusan.Witness
module Corpus = Testsuite.Corpus
module J = Reporting.Mjson
open Common

type target = {
  id : string;
  m : Kir.Ir.modul;
  entry : string;
  gt : Corpus.entry option;
}

let targets () =
  let of_module suite (m : Kir.Ir.modul) =
    List.map
      (fun entry -> { id = suite ^ "/" ^ entry; m; entry; gt = None })
      m.Kir.Ir.kernels
  in
  of_module "jacobi" Apps.Jacobi.device_module
  @ of_module "tealeaf" Apps.Tealeaf.device_module
  @ of_module "pingpong" Apps.Pingpong.fill_src
  @ of_module "cutests" Testsuite.Cases.device_module
  @ List.map
      (fun (e : Corpus.entry) ->
        {
          id = "corpus/" ^ e.Corpus.name;
          m = e.Corpus.m;
          entry = e.Corpus.entry;
          gt = Some e;
        })
      Corpus.all

(* Per-stage wall time of one kernel; the identity on the untraced
   path. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let stages =
  [
    "kir.validate_s";
    "cusan.kernel_analysis_s";
    "cusan.race_analysis_s";
    "cusan.witness_s";
    "cusan.certificate_s";
    "cusan.certcheck_s";
    "cusan.repair_s";
  ]

(* Run every stage on [t]; returns (problems, candidates, proved). The
   oracle: corpus entries match their [expect], [proves] and [repair]
   ground truth; app kernels validate and have no proved race; a
   certificate that was built is never rejected by the checker. *)
let lint { time } t =
  let problems = ref [] in
  let bad fmt = Fmt.kstr (fun s -> problems := (t.id ^ ": " ^ s) :: !problems) fmt in
  let valid =
    time "kir.validate_s" (fun () ->
        match Kir.Validate.check_module t.m with
        | () -> true
        | exception Kir.Validate.Invalid _ -> false)
  in
  let expect = Option.map (fun (e : Corpus.entry) -> e.Corpus.expect) t.gt in
  if not valid then begin
    if expect <> Some Corpus.Invalid then bad "rejected by the validator";
    (!problems, 0, 0)
  end
  else begin
    ignore
      (time "cusan.kernel_analysis_s" (fun () ->
           Cusan.Kernel_analysis.analyze t.m ~entry:t.entry));
    let races = time "cusan.race_analysis_s" (fun () -> RA.analyze t.m ~entry:t.entry) in
    let proofs =
      time "cusan.witness_s" (fun () ->
          List.map (fun r -> W.prove t.m ~entry:t.entry r) races)
    in
    let proved =
      List.length
        (List.filter (function W.Proved _ -> true | W.Unproved _ -> false) proofs)
    in
    (match
       time "cusan.certificate_s" (fun () -> Cusan.Certificate.build t.m ~entry:t.entry)
     with
    | Error _ -> ()
    | Ok cert -> (
        let bytes = J.to_string_pretty (Cusan.Certificate.to_json cert) in
        match
          time "cusan.certcheck_s" (fun () ->
              Result.bind (J.of_string bytes) (Cusan.Certcheck.check t.m ~entry:t.entry))
        with
        | Ok () -> ()
        | Error e -> bad "certificate rejected: %s" e));
    let fix = time "cusan.repair_s" (fun () -> Cusan.Repair.suggest t.m ~entry:t.entry) in
    (match t.gt with
    | None -> if proved > 0 then bad "%d proved race(s) in an app kernel" proved
    | Some e ->
        let must = RA.has_must races in
        let static_ok =
          match e.Corpus.expect with
          | Corpus.Invalid -> false
          | Corpus.Must -> must
          | Corpus.May -> races <> [] && not must
          | Corpus.Clean -> races = []
        in
        if not static_ok then
          bad "static verdict differs from %s" (Corpus.expect_str e.Corpus.expect);
        if (proved > 0) <> e.Corpus.proves then
          bad "witness outcome differs from ground truth";
        let repair_ok =
          match (fix, e.Corpus.repair) with
          | Cusan.Repair.Already_clean, Corpus.Nothing_to_fix -> true
          | Cusan.Repair.Fixed f, Corpus.Fixable pts -> f.Cusan.Repair.fpoints = pts
          | Cusan.Repair.Unrepairable _, Corpus.Unfixable -> true
          | _ -> false
        in
        if not repair_ok then bad "repair outcome differs from ground truth");
    (!problems, List.length races, proved)
  end

let untimed = { time = (fun _ f -> f ()) }

let probe () = ignore (lint untimed (List.hd (targets ())))

let measure ~seed ~seconds =
  let next = cycle (Random.State.make [| seed |]) (targets ()) in
  let notes = ref [] in
  let step () =
    let ps, _, _ = lint untimed (next ()) in
    remember notes ps;
    (1, if ps = [] then 0 else 1)
  in
  let r = closed_loop ~seconds step in
  measured ~notes:(List.rev !notes) r

let profile ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let ts = targets () in
  warm_up (fun () -> List.iter (fun t -> ignore (lint untimed t)) ts);
  let t0 = now () in
  let untraced = ref [] and attempted = ref 0 and failed = ref 0 in
  while !untraced = [] || now () < t0 +. (seconds /. 3.) do
    List.iter
      (fun t ->
        let s0 = now () in
        let ps, _, _ = lint untimed t in
        untraced := (now () -. s0) :: !untraced;
        incr attempted;
        if ps <> [] then incr failed)
      (shuffle rng ts)
  done;
  let acc = Hashtbl.create 8 in
  let timed =
    {
      time =
        (fun stage f ->
          let s0 = now () in
          let r = f () in
          Hashtbl.replace acc stage
            ((now () -. s0) +. Option.value (Hashtbl.find_opt acc stage) ~default:0.);
          r);
    }
  in
  let walls = ref [] and cands = ref 0 and proved = ref 0 and gc = ref gc_zero in
  let traced_total = ref 0. in
  while !walls = [] || now () < t0 +. seconds do
    List.iter
      (fun t ->
        let s0 = now () in
        let ps, c, p = with_gc gc (fun () -> lint timed t) in
        let dt = now () -. s0 in
        walls := dt :: !walls;
        traced_total := !traced_total +. dt;
        cands := !cands + c;
        proved := !proved + p;
        incr attempted;
        if ps <> [] then incr failed)
      (shuffle rng ts)
  done;
  let n = float (List.length !walls) in
  let stage s = Option.value (Hashtbl.find_opt acc s) ~default:0. in
  let staged = List.fold_left (fun a s -> a +. stage s) 0. stages in
  let traced = Stats.median !walls in
  {
    p_attempted = !attempted;
    p_failed = !failed;
    values =
      List.map (fun s -> (s, stage s /. n)) stages
      @ gc_values ~per:n !gc
      @ [
          ( "cusan.witness_proved_ratio",
            if !cands = 0 then 0. else float !proved /. float !cands );
          ("host.other_s", (!traced_total -. staged) /. n);
          ("trace.wall_s", traced);
          ("trace.overhead_pct", overhead_pct ~traced ~untraced:(Stats.median !untraced));
        ];
    spans = [];
    p_notes = [ Fmt.str "%d kernels traced" (List.length !walls) ];
  }
