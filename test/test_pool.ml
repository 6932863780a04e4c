(* Tests for the domain pool, the parallel testsuite runner's
   determinism guarantee, and the machine-readable emitters
   (JSON / JUnit / benchdiff comparison logic). *)

(* --- Pool ------------------------------------------------------------- *)

let map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let ys = Pool.map ~workers:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "results in input order"
    (List.map (fun x -> x * x) xs)
    ys

let map_seq_degenerate () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "workers:1 is List.map"
    (List.map succ xs)
    (Pool.map ~workers:1 succ xs)

exception Boom of int

let map_propagates_exception () =
  match Pool.map ~workers:3 (fun x -> if x = 7 then raise (Boom x) else x)
          (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 7 -> ()

let exclusively_drains_pool () =
  let p = Pool.create ~workers:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let busy = Atomic.make 0 in
      let violations = Atomic.make 0 in
      let tasks =
        List.init 40 (fun i () ->
            if i mod 5 = 0 then
              (* An exclusive section must observe every other worker
                 idle: no concurrent task inside its critical section. *)
              Pool.exclusively p (fun () ->
                  if Atomic.get busy <> 0 then Atomic.incr violations)
            else begin
              Atomic.incr busy;
              (* spin a little so tasks genuinely overlap *)
              let t = ref 0 in
              for k = 1 to 10_000 do
                t := !t + k
              done;
              ignore (Sys.opaque_identity !t);
              Atomic.decr busy
            end)
      in
      ignore (Pool.map_pool p (fun f -> f ()) tasks);
      Alcotest.(check int) "no task ran during an exclusive section" 0
        (Atomic.get violations))

let exclusively_returns_value () =
  let p = Pool.create ~workers:2 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let r =
        Pool.map_pool p (fun x -> Pool.exclusively p (fun () -> x * 2)) [ 21 ]
      in
      Alcotest.(check (list int)) "value threaded through" [ 42 ] r)

(* --- Cancellable submissions and timeouts ------------------------------ *)

let with_pool workers f =
  let p = Pool.create ~workers in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let submit_cancellable_completes () =
  with_pool 2 (fun p ->
      let h = Pool.submit_cancellable p (fun ~cancelled:_ -> 21 * 2) in
      match Pool.await h with
      | `Done (Ok 42) -> ()
      | `Done (Ok n) -> Alcotest.failf "wrong value %d" n
      | `Done (Error e) -> Alcotest.failf "raised %s" (Printexc.to_string e)
      | `Cancelled -> Alcotest.fail "spuriously cancelled"
      | `Timeout -> Alcotest.fail "await without timeout returned `Timeout")

let submit_cancellable_records_exception () =
  with_pool 2 (fun p ->
      let h = Pool.submit_cancellable p (fun ~cancelled:_ -> raise (Boom 3)) in
      match Pool.await h with
      | `Done (Error (Boom 3)) -> ()
      | _ -> Alcotest.fail "expected Done (Error (Boom 3))")

let cancel_pending_never_runs () =
  with_pool 1 (fun p ->
      (* One worker, held hostage by a gate: the second submission must
         still be pending when we cancel it, so it must never run. *)
      let gate = Atomic.make false in
      let ran = Atomic.make false in
      let blocker =
        Pool.submit_cancellable p (fun ~cancelled:_ ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.001
            done)
      in
      let victim =
        Pool.submit_cancellable p (fun ~cancelled:_ -> Atomic.set ran true)
      in
      Pool.cancel victim;
      Atomic.set gate true;
      (match Pool.await blocker with
      | `Done (Ok ()) -> ()
      | _ -> Alcotest.fail "blocker did not finish");
      (match Pool.await victim with
      | `Cancelled -> ()
      | `Done _ -> Alcotest.fail "cancelled-while-pending task ran"
      | `Timeout -> assert false);
      Alcotest.(check bool) "task body never executed" false (Atomic.get ran))

let cancel_running_task_cooperates () =
  with_pool 1 (fun p ->
      let started = Atomic.make false in
      let h =
        Pool.submit_cancellable p (fun ~cancelled ->
            Atomic.set started true;
            while not (cancelled ()) do
              Unix.sleepf 0.001
            done;
            7)
      in
      while not (Atomic.get started) do
        Unix.sleepf 0.001
      done;
      Pool.cancel h;
      (* A running task keeps its slot until it observes the probe; its
         result is still recorded. *)
      match Pool.await h with
      | `Done (Ok 7) -> ()
      | _ -> Alcotest.fail "running task's result was not recorded")

let await_timeout_fires () =
  with_pool 1 (fun p ->
      let release = Atomic.make false in
      let h =
        Pool.submit_cancellable p (fun ~cancelled ->
            while not (Atomic.get release || cancelled ()) do
              Unix.sleepf 0.001
            done)
      in
      (match Pool.await ~timeout_s:0.05 h with
      | `Timeout -> ()
      | _ -> Alcotest.fail "expected `Timeout");
      Atomic.set release true;
      match Pool.await h with
      | `Done (Ok ()) -> ()
      | _ -> Alcotest.fail "task did not finish after release")

let map_timeout_mixed () =
  with_pool 4 (fun p ->
      let items = [ `Fast 1; `Slow; `Fast 2; `Slow ] in
      let rs =
        Pool.map_timeout p ~timeout_s:0.5
          (fun ~cancelled -> function
            | `Fast x -> x * 10
            | `Slow ->
                while not (cancelled ()) do
                  Unix.sleepf 0.001
                done;
                -1)
          items
      in
      match rs with
      | [ Some (Ok 10); None; Some (Ok 20); None ] -> ()
      | _ ->
          Alcotest.failf "unexpected outcomes: [%s]"
            (String.concat ";"
               (List.map
                  (function
                    | Some (Ok n) -> string_of_int n
                    | Some (Error e) -> Printexc.to_string e
                    | None -> "None")
                  rs)))

(* The satellite property: a timed-out task can never corrupt a
   survivor's slot. Random mixes of fast tasks (some of which raise),
   and slow tasks that only end when cancelled at the deadline — every
   slot is either [None] or exactly the value/exception its own input
   produces, in input order. *)
let prop_map_timeout_slots =
  let gen = QCheck.(list_of_size Gen.(0 -- 8) (pair small_nat bool)) in
  QCheck.Test.make ~count:15
    ~name:"map_timeout: timed-out tasks never corrupt survivor slots" gen
    (fun items ->
      with_pool 3 (fun p ->
          let rs =
            Pool.map_timeout p ~timeout_s:0.3
              (fun ~cancelled (x, slow) ->
                if slow then begin
                  while not (cancelled ()) do
                    Unix.sleepf 0.001
                  done;
                  (* a poisoned value: must never surface in any slot *)
                  -1
                end
                else if x mod 5 = 0 then raise (Boom x)
                else x + 1)
              items
          in
          List.length rs = List.length items
          && List.for_all2
               (fun (x, slow) r ->
                 match r with
                 | None -> true (* timed out, or never got a worker *)
                 | Some (Ok v) -> (not slow) && x mod 5 <> 0 && v = x + 1
                 | Some (Error (Boom y)) -> (not slow) && x mod 5 = 0 && y = x
                 | Some (Error _) -> false)
               items rs))

(* --- Elastic resize ---------------------------------------------------- *)

let wait_alive p target =
  let rec go n =
    if Pool.alive p = target then ()
    else if n = 0 then
      Alcotest.failf "alive never reached %d (now %d)" target (Pool.alive p)
    else begin
      Unix.sleepf 0.002;
      go (n - 1)
    end
  in
  go 2500

let resize_grows_and_shrinks () =
  with_pool 1 (fun p ->
      Alcotest.(check int) "initial size" 1 (Pool.size p);
      Alcotest.(check int) "grow returns previous target" 1 (Pool.resize p 4);
      Alcotest.(check int) "target updated" 4 (Pool.size p);
      wait_alive p 4;
      (* work still lands correctly on the grown pool *)
      let xs = List.init 20 Fun.id in
      Alcotest.(check (list int)) "map_pool on grown pool"
        (List.map (fun x -> x * x) xs)
        (Pool.map_pool p (fun x -> x * x) xs);
      Alcotest.(check int) "shrink returns previous target" 4 (Pool.resize p 1);
      Alcotest.(check int) "target shrunk" 1 (Pool.size p);
      (* surplus workers retire at a task boundary, not mid-pool-life *)
      wait_alive p 1;
      Alcotest.(check (list int)) "map_pool on shrunk pool"
        (List.map succ xs)
        (Pool.map_pool p succ xs))

let resize_mid_job_finishes_it () =
  with_pool 2 (fun p ->
      (* occupy a worker, shrink under it: the running job must finish
         and its result must be recorded *)
      let started = Atomic.make false in
      let release = Atomic.make false in
      let h =
        Pool.submit_cancellable p (fun ~cancelled:_ ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            77)
      in
      while not (Atomic.get started) do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "shrink under a running job" 2 (Pool.resize p 1);
      Atomic.set release true;
      (match Pool.await h with
      | `Done (Ok 77) -> ()
      | _ -> Alcotest.fail "job abandoned by the shrink");
      wait_alive p 1)

let resize_rejects_invalid () =
  let p = Pool.create ~workers:2 in
  (match Pool.resize p 0 with
  | _ -> Alcotest.fail "resize 0 accepted"
  | exception Invalid_argument _ -> ());
  Pool.shutdown p;
  match Pool.resize p 2 with
  | _ -> Alcotest.fail "resize after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* Results are independent of any interleaved resize sequence. *)
let resize_result_independent () =
  with_pool 2 (fun p ->
      let expect = List.init 30 (fun x -> x * 3) in
      let hs =
        List.init 30 (fun x ->
            Pool.submit_cancellable p (fun ~cancelled:_ -> x * 3))
      in
      ignore (Pool.resize p 5);
      ignore (Pool.resize p 1);
      ignore (Pool.resize p 3);
      let got =
        List.map
          (fun h ->
            match Pool.await h with
            | `Done (Ok v) -> v
            | _ -> Alcotest.fail "task lost across resizes")
          hs
      in
      Alcotest.(check (list int)) "values survive resize storm" expect got)

(* --- Parallel testsuite determinism ----------------------------------- *)

(* Render everything observable about a verdict except wall time (the
   only field that legitimately differs between runs). *)
let render (v : Testsuite.Runner.verdict) =
  Fmt.str "%a // faults:[%s] // failures:[%s] // reports:[%s]"
    Testsuite.Runner.pp_verdict v
    (String.concat ";"
       (List.map
          (Fmt.str "%a" Faultsim.Injector.pp_decision)
          v.Testsuite.Runner.fault_log))
    (String.concat ";"
       (List.map
          (fun (rank, why) -> Fmt.str "%d:%s" rank why)
          v.Testsuite.Runner.failures))
    (String.concat ";"
       (List.map
          (fun (rank, r) -> Fmt.str "%d:%s" rank (Tsan.Report.to_string r))
          v.Testsuite.Runner.reports))

let fault_plan () =
  match
    Faultsim.Plan.parse_spec
      "cuda_malloc@1#1:fail,mpi_wait*5:hang,kernel_launch%0.2:fail"
  with
  | Ok (_, plan) -> plan
  | Error msg -> Alcotest.failf "fault spec did not parse: %s" msg

(* The tentpole property: sharding the matrix over any number of worker
   domains yields byte-identical verdicts to the sequential runner, for
   both the normal and the fault-injected matrix. *)
let parallel_matches_sequential =
  QCheck.Test.make ~count:6 ~name:"run_matrix -j N == sequential (N in 1..8)"
    (QCheck.int_range 1 8)
    (fun j ->
      let seq = List.map render (Testsuite.Runner.run_matrix ~j:1 ()) in
      let par = List.map render (Testsuite.Runner.run_matrix ~j ()) in
      let faults = Some (7, fault_plan ()) in
      let fseq = List.map render (Testsuite.Runner.run_matrix ?faults ~j:1 ()) in
      let fpar = List.map render (Testsuite.Runner.run_matrix ?faults ~j ()) in
      seq = par && fseq = fpar)

(* Hard failures must not erode the guarantee: a plan that kills ranks
   and loses messages still yields byte-identical verdicts AND reports
   (the full JSON document, post-mortems included) for -j 1 vs -j 8,
   across seeds. Wall time is the one legitimately nondeterministic
   field, so it is zeroed before rendering. *)
let hard_failure_plans_deterministic =
  QCheck.Test.make ~count:3
    ~name:"crash/drop plans: -j 8 == -j 1 across seeds"
    (QCheck.oneofl [ 7; 21; 42 ])
    (fun seed ->
      let plan =
        match
          Faultsim.Plan.parse_spec "mpi_recv@1#3:crash,mpi_send@0#2:drop"
        with
        | Ok (_, p) -> p
        | Error msg -> QCheck.Test.fail_reportf "plan did not parse: %s" msg
      in
      let faults = Some (seed, plan) in
      let strip (v : Testsuite.Runner.verdict) =
        { v with Testsuite.Runner.wall_s = 0. }
      in
      let doc vs =
        Reporting.Mjson.to_string
          (Testsuite.Emit.json ~seed ~mode:"eager" ~j:0 vs)
      in
      let seq =
        List.map strip (Testsuite.Runner.run_matrix ?faults ~j:1 ())
      in
      let par =
        List.map strip (Testsuite.Runner.run_matrix ?faults ~j:8 ())
      in
      List.map render seq = List.map render par && doc seq = doc par)

(* --- Mjson ------------------------------------------------------------- *)

let sample : Reporting.Mjson.t =
  let open Reporting.Mjson in
  Obj
    [
      ("schema", Str "t/1");
      ("ok", Bool true);
      ("none", Null);
      ("n", Int (-42));
      ("x", Float 1.5);
      ("s", Str "a \"quoted\"\nline\tand \\ slash");
      ("xs", List [ Int 1; Float 0.25; Str ""; List []; Obj [] ]);
    ]

let mjson_roundtrip () =
  let open Reporting.Mjson in
  (match of_string (to_string sample) with
  | Ok v -> Alcotest.(check bool) "compact roundtrip" true (v = sample)
  | Error msg -> Alcotest.failf "compact parse failed: %s" msg);
  match of_string (to_string_pretty sample) with
  | Ok v -> Alcotest.(check bool) "pretty roundtrip" true (v = sample)
  | Error msg -> Alcotest.failf "pretty parse failed: %s" msg

let mjson_rejects_garbage () =
  let open Reporting.Mjson in
  List.iter
    (fun s ->
      match of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let mjson_accessors () =
  let open Reporting.Mjson in
  Alcotest.(check (option int)) "member+to_int" (Some (-42))
    (Option.bind (member "n" sample) to_int);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (member "nope" sample) to_str);
  Alcotest.(check (option (float 0.0))) "int reads as float" (Some (-42.))
    (Option.bind (member "n" sample) to_float)

(* --- JUnit & JSON emitters --------------------------------------------- *)

let two_verdicts () =
  match Testsuite.Cases.all () with
  | a :: b :: _ ->
      let va = Testsuite.Runner.run_case a in
      let vb = Testsuite.Runner.run_case b in
      (va, vb)
  | _ -> Alcotest.fail "testsuite has fewer than two cases"

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let junit_emitter () =
  let va, vb = two_verdicts () in
  (* Force one failure so the failure element is exercised. *)
  let vb = { vb with Testsuite.Runner.pass = false } in
  let xml = Testsuite.Emit.junit [ va; vb ] in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Fmt.str "junit contains %s" sub) true
        (contains ~sub xml))
    [
      "<?xml version=\"1.0\"";
      "tests=\"2\"";
      "failures=\"1\"";
      "classname=\"CuSanTest\"";
      va.Testsuite.Runner.case.Testsuite.Cases.name;
      "<failure";
    ]

let json_emitter () =
  let va, vb = two_verdicts () in
  let doc = Testsuite.Emit.json ~seed:7 ~mode:"eager" ~j:3 [ va; vb ] in
  let open Reporting.Mjson in
  (* The emitted document must survive its own parser. *)
  (match of_string (to_string_pretty doc) with
  | Ok v -> Alcotest.(check bool) "self-parses" true (v = doc)
  | Error msg -> Alcotest.failf "emitted JSON does not parse: %s" msg);
  Alcotest.(check (option string)) "schema" (Some "cusan-tests/1")
    (Option.bind (member "schema" doc) to_str);
  Alcotest.(check (option int)) "workers" (Some 3)
    (Option.bind (member "workers" doc) to_int);
  Alcotest.(check (option int)) "total" (Some 2)
    (Option.bind (member "total" doc) to_int);
  Alcotest.(check (option int)) "cases"
    (Some 2)
    (Option.bind (member "cases" doc) to_list |> Option.map List.length)

(* A failing case's JUnit body carries every hostile byte a race report
   or a fault log can contain (quotes, angle brackets, backslashes,
   control characters). The emitter must keep the document well-formed —
   regression: attribute values went through %S, which wrapped the
   already-XML-escaped text in a second, OCaml-syntax escaping layer. *)

(* Strict reverse of the emitter's xml_escape: a raw '<' or '"', or an
   '&' that does not introduce a recognized entity, means the document
   was not properly escaped. *)
let xml_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else
      match s.[i] with
      | '<' | '"' -> None
      | '&' -> (
          match String.index_from_opt s i ';' with
          | None -> None
          | Some j -> (
              let put c =
                Buffer.add_char b c;
                go (j + 1)
              in
              match String.sub s i (j - i + 1) with
              | "&lt;" -> put '<'
              | "&gt;" -> put '>'
              | "&amp;" -> put '&'
              | "&quot;" -> put '"'
              | "&apos;" -> put '\''
              | e -> (
                  match Scanf.sscanf_opt e "&#%d;" Fun.id with
                  | Some c when c >= 0 && c < 256 -> put (Char.chr c)
                  | _ -> None)))
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0

(* Slice out the text between [start] (after its first occurrence) and
   the next occurrence of [stop]. *)
let between ~start ~stop s =
  let n = String.length s in
  let find pat from =
    let m = String.length pat in
    let rec at i =
      if i + m > n then None
      else if String.sub s i m = pat then Some i
      else at (i + 1)
    in
    at from
  in
  Option.bind (find start 0) (fun i ->
      let b = i + String.length start in
      Option.map
        (fun e -> String.sub s b (e - b))
        (find stop b))

let hostile_gen =
  QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl
      [ '<'; '>'; '&'; '"'; '\''; '\\'; '\n'; '\t'; 'a'; 'B'; ' '; '\x01'; ';'; '#' ])
    QCheck.Gen.(0 -- 30)

let prop_junit_roundtrips_hostile =
  QCheck.Test.make ~count:300 ~name:"junit escapes hostile strings once"
    (QCheck.make ~print:(Printf.sprintf "%S") hostile_gen)
    (fun s ->
      let xml =
        Reporting.Junit.to_string ~suite_name:"suite"
          [
            {
              Reporting.Junit.classname = "C";
              name = s;
              time_s = 0.;
              failure = Some (s, s);
            };
          ]
      in
      (* Scanning to the next raw quote / the literal </failure> tag is
         exactly what an XML parser does: if a quote or a tag leaked
         unescaped, the slice comes back truncated or unescapable. *)
      let name_ok =
        Option.bind (between ~start:"classname=\"C\" name=\"" ~stop:"\"" xml)
          xml_unescape
        = Some s
      in
      (* Sliced out of its tags the failure element is MSG, a quote, a
         closing angle bracket, then BODY: the first raw quote must end
         the message attribute. *)
      let failure_ok =
        match between ~start:"<failure message=\"" ~stop:"</failure>" xml with
        | None -> false
        | Some fe -> (
            match String.index_opt fe '"' with
            | None -> false
            | Some q ->
                let msg = String.sub fe 0 q in
                let rest_len = String.length fe - q - 1 in
                rest_len >= 1
                && fe.[q + 1] = '>'
                && xml_unescape msg = Some s
                && xml_unescape (String.sub fe (q + 2) (rest_len - 1)) = Some s)
      in
      name_ok && failure_ok)

let junit_escapes_once () =
  (* The regression pinned down: %S wrapped the already XML-escaped
     value in OCaml-syntax quotes and doubled its backslashes. *)
  let xml =
    Reporting.Junit.to_string ~suite_name:"s"
      [
        {
          Reporting.Junit.classname = "C";
          name = {|a\b"c|};
          time_s = 0.;
          failure = None;
        };
      ]
  in
  Alcotest.(check bool) "single escaping layer" true
    (contains ~sub:{|name="a\b&quot;c"|} xml);
  Alcotest.(check bool) "no OCaml-style backslash doubling" false
    (contains ~sub:{|a\\b|} xml)

(* --- Benchdiff comparison logic ---------------------------------------- *)

let cell key value = { Reporting.Benchcmp.key; value }

let benchcmp_thresholds () =
  let open Reporting.Benchcmp in
  let baseline = [ cell "a" 10.0; cell "b" 10.0; cell "c" 10.0; cell "gone" 1.0 ] in
  let run = [ cell "a" 12.0; cell "b" 13.0; cell "c" 5.0; cell "new" 99.0 ] in
  let outcomes = compare ~threshold_pct:25.0 ~baseline ~run in
  let verdicts =
    List.map
      (function
        | Ok_cell { key; _ } -> (key, "ok")
        | Regressed { key; _ } -> (key, "regressed")
        | Missing { key; _ } -> (key, "missing")
        | Suite _ -> ("suite", "suite"))
      outcomes
  in
  Alcotest.(check (list (pair string string)))
    "outcome per baseline cell; run-only cells ignored"
    [
      ("a", "ok") (* +20% within threshold *);
      ("b", "regressed") (* +30% over threshold *);
      ("c", "ok") (* improvement never fails *);
      ("gone", "missing") (* vanished cell fails *);
    ]
    verdicts;
  Alcotest.(check bool) "any_failed" true (any_failed outcomes);
  Alcotest.(check bool) "clean run passes" false
    (any_failed (compare ~threshold_pct:25.0 ~baseline:[ cell "a" 2.0 ]
       ~run:[ cell "a" 2.2 ]))

(* Satellite of the benchdiff CLI contract: run cells the baseline has
   never heard of are surfaced by name (benchdiff turns a non-empty
   list into exit 2 with refresh guidance) instead of being silently
   ignored forever. *)
let benchcmp_unbaselined () =
  let open Reporting.Benchcmp in
  let baseline = [ cell "a" 1.0; cell "b" 2.0 ] in
  let run = [ cell "b" 2.0; cell "new1" 9.0; cell "new2" 3.0 ] in
  Alcotest.(check (list string))
    "new cells reported by name"
    [ "new1"; "new2" ]
    (List.map
       (fun c -> c.Reporting.Benchcmp.key)
       (unbaselined ~baseline ~run));
  Alcotest.(check (list string)) "covered runs report nothing" []
    (List.map
       (fun c -> c.Reporting.Benchcmp.key)
       (unbaselined ~baseline ~run:[ cell "a" 5.0 ]))

let benchcmp_cells_of_json () =
  let open Reporting.Mjson in
  let doc =
    Obj
      [
        ( "fig10",
          List
            [
              Obj
                [
                  ("app", Str "Jacobi");
                  ("flavor", Str "CuSan");
                  ("rel", Float 19.5);
                ];
            ] );
        ( "fig11",
          List
            [
              Obj
                [
                  ("app", Str "TeaLeaf");
                  ("flavor", Str "MUST & CuSan");
                  ("rel", Float 7.25);
                ];
            ] );
        ( "fig12",
          List [ Obj [ ("nx", Int 64); ("ny", Int 32); ("rel", Float 4.5) ] ] );
        ( "micro",
          List
            [
              Obj
                [ ("name", Str "tsan/write_range 4096B"); ("ns", Float 67.5) ];
            ] );
      ]
  in
  let cells = Reporting.Benchcmp.cells_of_json doc in
  Alcotest.(check (list (pair string (float 1e-9))))
    "keys and values extracted"
    [
      ("fig10/Jacobi/CuSan", 19.5);
      ("fig11/TeaLeaf/MUST & CuSan", 7.25);
      ("fig12/64x32", 4.5);
      ("micro/tsan/write_range 4096B", 67.5);
    ]
    (List.map
       (fun c -> (c.Reporting.Benchcmp.key, c.Reporting.Benchcmp.value))
       cells);
  (* --mode separates the ratio cells from the ns/op cells *)
  let keys mode =
    List.map
      (fun c -> c.Reporting.Benchcmp.key)
      (Reporting.Benchcmp.filter_mode mode cells)
  in
  Alcotest.(check (list string))
    "macro mode excludes micro cells"
    [ "fig10/Jacobi/CuSan"; "fig11/TeaLeaf/MUST & CuSan"; "fig12/64x32" ]
    (keys Reporting.Benchcmp.Macro);
  Alcotest.(check (list string))
    "micro mode keeps only micro cells"
    [ "micro/tsan/write_range 4096B" ]
    (keys Reporting.Benchcmp.Micro);
  Alcotest.(check int) "all mode keeps everything" 4
    (List.length (keys Reporting.Benchcmp.All))

(* Regression: fig11 (memory overhead) was invisible to the bench gate —
   cells_of_json only extracted fig10/fig12, so a run whose memory
   ratios exploded still passed benchdiff. A fig11-regressing artifact
   must now fail the comparison. *)
let benchcmp_gates_fig11 () =
  let open Reporting.Mjson in
  let artifact rel =
    Obj
      [
        ( "fig11",
          List
            [
              Obj
                [ ("app", Str "Jacobi"); ("flavor", Str "TSan"); ("rel", Float rel) ];
            ] );
      ]
  in
  let open Reporting.Benchcmp in
  let baseline = cells_of_json (artifact 10.0) in
  Alcotest.(check bool) "fig11 regression fails the gate" true
    (any_failed
       (compare ~threshold_pct:25.0 ~baseline
          ~run:(cells_of_json (artifact 20.0))));
  Alcotest.(check bool) "fig11 within threshold passes" false
    (any_failed
       (compare ~threshold_pct:25.0 ~baseline
          ~run:(cells_of_json (artifact 11.0))))

(* Regression: the suite pass count was never gated, so the committed
   baseline kept recording 87/87 after the matrix grew to 88 cases. A
   run passing fewer cases, or running fewer, than the baseline must
   now fail; a run without a suite summary fails like a missing cell. *)
let benchcmp_gates_suite () =
  let open Reporting.Mjson in
  let artifact pass total =
    Obj [ ("suite", Obj [ ("pass", Int pass); ("total", Int total) ]) ]
  in
  let open Reporting.Benchcmp in
  let baseline = suite_of_json (artifact 86 88) in
  let gate run = any_failed (compare_suite ~baseline ~run) in
  Alcotest.(check bool) "same counts pass" false
    (gate (suite_of_json (artifact 86 88)));
  Alcotest.(check bool) "more passes and a grown matrix pass" false
    (gate (suite_of_json (artifact 89 90)));
  Alcotest.(check bool) "fewer passes fail" true
    (gate (suite_of_json (artifact 85 88)));
  Alcotest.(check bool) "a smaller total fails" true
    (gate (suite_of_json (artifact 86 87)));
  Alcotest.(check bool) "absent from the run fails" true (gate None);
  Alcotest.(check int) "no baselined suite, no gate" 0
    (List.length
       (compare_suite ~baseline:None ~run:(Some { pass = 0; total = 0 })))

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick map_preserves_order;
          Alcotest.test_case "workers:1 degenerates" `Quick map_seq_degenerate;
          Alcotest.test_case "exceptions propagate" `Quick
            map_propagates_exception;
          Alcotest.test_case "exclusively drains pool" `Quick
            exclusively_drains_pool;
          Alcotest.test_case "exclusively returns value" `Quick
            exclusively_returns_value;
        ] );
      ( "cancellable",
        [
          Alcotest.test_case "completes" `Quick submit_cancellable_completes;
          Alcotest.test_case "records exception" `Quick
            submit_cancellable_records_exception;
          Alcotest.test_case "cancel pending never runs" `Quick
            cancel_pending_never_runs;
          Alcotest.test_case "cancel running cooperates" `Quick
            cancel_running_task_cooperates;
          Alcotest.test_case "await timeout fires" `Quick await_timeout_fires;
          Alcotest.test_case "map_timeout mixed" `Quick map_timeout_mixed;
          QCheck_alcotest.to_alcotest prop_map_timeout_slots;
        ] );
      ( "resize",
        [
          Alcotest.test_case "grows and shrinks" `Quick resize_grows_and_shrinks;
          Alcotest.test_case "running job finishes across shrink" `Quick
            resize_mid_job_finishes_it;
          Alcotest.test_case "rejects invalid targets" `Quick
            resize_rejects_invalid;
          Alcotest.test_case "results independent of resizes" `Quick
            resize_result_independent;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest parallel_matches_sequential;
          QCheck_alcotest.to_alcotest hard_failure_plans_deterministic;
        ] );
      ( "mjson",
        [
          Alcotest.test_case "roundtrip" `Quick mjson_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick mjson_rejects_garbage;
          Alcotest.test_case "accessors" `Quick mjson_accessors;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "junit" `Quick junit_emitter;
          Alcotest.test_case "json" `Quick json_emitter;
          Alcotest.test_case "junit escapes once" `Quick junit_escapes_once;
          QCheck_alcotest.to_alcotest prop_junit_roundtrips_hostile;
        ] );
      ( "benchcmp",
        [
          Alcotest.test_case "thresholds" `Quick benchcmp_thresholds;
          Alcotest.test_case "unbaselined cells named" `Quick
            benchcmp_unbaselined;
          Alcotest.test_case "cells_of_json" `Quick benchcmp_cells_of_json;
          Alcotest.test_case "fig11 gated" `Quick benchcmp_gates_fig11;
          Alcotest.test_case "suite gated" `Quick benchcmp_gates_suite;
        ] );
    ]
