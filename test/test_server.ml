(* Tests for the cusand analysis daemon stack: the wire protocol
   (roundtrips, hostile and torn frames), the job engine's determinism
   (the property that makes the result cache and the daemon-vs-batch
   byte-identity contract sound), the deterministic retry backoff, and
   the daemon itself end-to-end over a real Unix-domain socket —
   including the chaos acceptance: with a third of the jobs crashing or
   wedging, every surviving job is served byte-identically to a local
   batch run, every killed job gets a post-mortem, the queue stays
   bounded, and the drain completes cleanly. *)

module Mjson = Reporting.Mjson
module P = Server.Protocol
module D = Server.Daemon
module E = Server.Engine

let mstr = Mjson.to_string

let member_str k j =
  Mjson.member k j |> Fun.flip Option.bind Mjson.to_str

let member_int k j =
  Mjson.member k j |> Fun.flip Option.bind Mjson.to_int

let member_bool k j =
  Mjson.member k j |> Fun.flip Option.bind Mjson.to_bool

(* --- protocol: requests roundtrip the wire ------------------------------ *)

let string_gen =
  (* Full byte range minus '\255' markers QCheck dislikes printing:
     hostile on purpose — quotes, braces, newlines, NULs, high bytes. *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40))

let job_gen : P.job QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun target -> P.Lint { target }) string_gen;
      map3
        (fun case seed faults -> P.Soak { case; seed; faults })
        string_gen small_signed_int
        (option string_gen);
      map2 (fun app flavor -> P.Bench { app; flavor }) string_gen string_gen;
      return P.Boom;
      map (fun steps -> P.Spin { steps = steps + 1 }) small_nat;
    ]

let request_gen : P.request QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun j -> P.Submit j) job_gen;
      return P.Health;
      return P.Stats;
      return P.Shutdown;
    ]

let request_print r = mstr (P.request_to_json r)

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request -> json -> string -> request"
    (QCheck.make ~print:request_print request_gen)
    (fun r -> P.parse_request (mstr (P.request_to_json r)) = Ok r)

(* Hostile bytes must decode to Ok or Error — never an exception for
   the accept loop to trip over. *)
let prop_parse_never_raises =
  QCheck.Test.make ~count:500 ~name:"parse_request total on hostile input"
    (QCheck.make ~print:(Printf.sprintf "%S") string_gen)
    (fun s ->
      match P.parse_request s with Ok _ | Error _ -> true)

(* A parse failure must name the problem: bad JSON, bad schema, bad op,
   missing field. *)
let parse_request_errors () =
  let err s =
    match P.parse_request s with
    | Error m -> m
    | Ok _ -> Alcotest.failf "accepted %S" s
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "bad json named" true
    (contains ~sub:"bad JSON" (err "{not json"));
  Alcotest.(check bool) "unknown schema named" true
    (contains ~sub:"schema" (err {|{"schema":"bogus/9","op":"health"}|}));
  Alcotest.(check bool) "unknown op named" true
    (contains ~sub:"unknown op" (err {|{"op":"frobnicate"}|}));
  (* resize and subscribe are not part of the protocol *)
  Alcotest.(check bool) "resize is unknown" true
    (contains ~sub:"unknown op" (err {|{"op":"resize","workers":2}|}));
  Alcotest.(check bool) "subscribe is unknown" true
    (contains ~sub:"unknown op" (err {|{"op":"subscribe","job":"ab"}|}));
  Alcotest.(check bool) "missing field named" true
    (contains ~sub:"target" (err {|{"op":"lint"}|}));
  Alcotest.(check bool) "missing op named" true
    (contains ~sub:"op" (err {|{"schema":"cusand/1"}|}))

(* --- protocol: framing over a real socketpair --------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let frame_roundtrip () =
  with_socketpair (fun a b ->
      let doc = P.error_reply "x\"y\nz" in
      P.write_frame a doc;
      match P.read_frame b with
      | Ok line -> (
          match Mjson.of_string line with
          | Ok j -> Alcotest.(check string) "frame roundtrips" (mstr doc) (mstr j)
          | Error m -> Alcotest.failf "reply does not parse: %s" m)
      | Error e -> Alcotest.failf "read failed: %s" (P.read_error_to_string e))

let frame_closed () =
  with_socketpair (fun a b ->
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match P.read_frame b with
      | Error P.Closed -> ()
      | Error e -> Alcotest.failf "expected Closed, got %s" (P.read_error_to_string e)
      | Ok s -> Alcotest.failf "expected Closed, got frame %S" s)

let frame_truncated () =
  with_socketpair (fun a b ->
      write_all a "{\"op\":\"health\"";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match P.read_frame b with
      | Error (P.Truncated partial) ->
          Alcotest.(check string) "partial bytes kept" "{\"op\":\"health\"" partial
      | Error e ->
          Alcotest.failf "expected Truncated, got %s" (P.read_error_to_string e)
      | Ok s -> Alcotest.failf "expected Truncated, got frame %S" s)

let frame_oversized () =
  with_socketpair (fun a b ->
      (* Feed > max_frame bytes with no newline from a writer thread
         (the reader must give up; a single-threaded write could fill
         both socket buffers and deadlock the test). *)
      let writer =
        Thread.create
          (fun () ->
            try write_all a (String.make ((P.max_frame + 8192) land max_int) 'a')
            with Unix.Unix_error _ -> ())
          ()
      in
      let r = P.read_frame b in
      (try Unix.close b with Unix.Unix_error _ -> ());
      Thread.join writer;
      match r with
      | Error (P.Oversized _) -> ()
      | Error e ->
          Alcotest.failf "expected Oversized, got %s" (P.read_error_to_string e)
      | Ok s -> Alcotest.failf "expected Oversized, got %d-byte frame" (String.length s))

(* --- engine: determinism (cache + byte-identity soundness) -------------- *)

let run_ok job =
  match E.run_job job with
  | Ok j -> j
  | Error m -> Alcotest.failf "job failed: %s" m

let engine_deterministic () =
  List.iter
    (fun job ->
      let a = mstr (run_ok job) in
      let b = mstr (run_ok job) in
      Alcotest.(check string) (P.job_describe job) a b)
    [
      P.Lint { target = "jacobi/jacobi" };
      P.Soak { case = "legacy/default_barrier_blocking"; seed = 0; faults = None };
      P.Soak
        {
          case = "cuda-to-mpi/send_device_nosync_nok";
          seed = 11;
          faults = Some "kernel_launch%0.3:fail";
        };
      P.Spin { steps = 20_000 };
    ]

let engine_rejects_unknown () =
  let check_err job sub =
    match E.run_job job with
    | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" (P.job_describe job)
    | Error m ->
        let contains =
          let n = String.length m and k = String.length sub in
          let rec at i = i + k <= n && (String.sub m i k = sub || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) (Fmt.str "%s names %s" m sub) true contains
  in
  check_err (P.Lint { target = "no/such" }) "known:";
  check_err (P.Soak { case = "no/such"; seed = 0; faults = None }) "known:";
  check_err
    (P.Soak
       { case = "legacy/default_barrier_blocking"; seed = 0; faults = Some "%%%" })
    "fault spec";
  check_err (P.Bench { app = "no-such"; flavor = "cusan" }) "known:";
  check_err (P.Bench { app = "jacobi"; flavor = "warp9" }) "flavor"

(* Soak jobs resolve through the matrix built once per domain, lint
   jobs through a table; an unknown id gets the same error text as
   before the tables. *)
let engine_lookup () =
  let cases = Testsuite.Cases.all () in
  Alcotest.(check int) "88 cases" 88 (List.length cases);
  Alcotest.(check bool) "the matrix is built once per domain" true
    (Testsuite.Cases.all () == cases);
  List.iter
    (fun (c : Testsuite.Cases.case) ->
      match Testsuite.Cases.find c.Testsuite.Cases.name with
      | Some found ->
          Alcotest.(check bool) (c.Testsuite.Cases.name ^ " resolves to its case") true
            (found == c)
      | None -> Alcotest.failf "%s does not resolve" c.Testsuite.Cases.name)
    cases;
  let error job =
    match E.run_job job with
    | Error m -> m
    | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" (P.job_describe job)
  in
  Alcotest.(check string) "unknown lint target"
    "no such lint target \"no/such\"; known: jacobi/jacobi, jacobi/init, jacobi/norm, \
     tealeaf/tl_init, tealeaf/tl_copy, tealeaf/tl_matvec, tealeaf/tl_cg_init, \
     tealeaf/tl_dot, ... (26 total)"
    (error (P.Lint { target = "no/such" }));
  Alcotest.(check string) "unknown case"
    "no such testsuite case \"no/such\"; known: cuda-to-mpi/send_device_devicesync, \
     cuda-to-mpi/send_device_streamsync, cuda-to-mpi/send_device_eventsync, \
     cuda-to-mpi/send_device_queryloop, cuda-to-mpi/send_device_eventqueryloop, \
     cuda-to-mpi/send_device_freesync, cuda-to-mpi/send_device_memcpyimplicit, \
     cuda-to-mpi/send_device_nosync_nok, ... (88 total)"
    (error (P.Soak { case = "no/such"; seed = 0; faults = None }));
  (* every target id resolves, to a verdict about that id *)
  List.iter
    (fun target ->
      Alcotest.(check (option string)) target (Some target)
        (member_str "name" (run_ok (P.Lint { target }))))
    (E.lint_target_ids ())

let engine_boom_raises () =
  match E.run_job P.Boom with
  | exception E.Chaos_drill -> ()
  | _ -> Alcotest.fail "boom did not raise Chaos_drill"

let engine_spin_stalls () =
  let j = run_ok (P.Spin { steps = 20_000 }) in
  Alcotest.(check (option string)) "outcome" (Some "stalled") (member_str "outcome" j);
  let stall = Option.get (Mjson.member "stall" j) in
  Alcotest.(check (option int)) "budget hit" (Some 20_000) (member_int "steps" stall)

(* --- resilience: deterministic seeded backoff --------------------------- *)

let backoff_deterministic () =
  Alcotest.(check (list int)) "same seed, same schedule"
    (Resilience.backoff_schedule ~seed:42 ~attempts:8)
    (Resilience.backoff_schedule ~seed:42 ~attempts:8);
  Alcotest.(check bool) "different seeds decorrelate" true
    (Resilience.backoff_schedule ~seed:1 ~attempts:8
    <> Resilience.backoff_schedule ~seed:2 ~attempts:8)

(* The pinned sequence: uncapped exponential base doubling into the
   1024 cap, plus the seed-42 Prng jitter. A change to the Prng stream,
   the cap, or the jitter window shows up here as a literal diff. *)
let backoff_pinned () =
  Alcotest.(check (list int)) "unjittered base doubles then caps"
    [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 1024; 1024 ]
    (List.init 12 (fun i -> Resilience.backoff_yields ~attempt:(i + 1) ()));
  Alcotest.(check (list int)) "seed 42 jittered schedule"
    [ 3; 7; 10; 20; 50; 70 ]
    (Resilience.backoff_schedule ~seed:42 ~attempts:6);
  (* Seed 1 is cusanctl's default --seed: this is the exact backoff
     schedule every out-of-the-box client retry loop spends. *)
  Alcotest.(check (list int)) "seed 1 (cusanctl default) schedule"
    [ 3; 7; 14; 27; 57; 64 ]
    (Resilience.backoff_schedule ~seed:1 ~attempts:6)

let with_retries_spends_schedule () =
  (* The retry loop must spend exactly the schedule the seed predicts,
     via whatever medium on_backoff maps yields onto. *)
  let seed = 42 in
  let spent = ref [] in
  let attempts_seen = ref [] in
  let v =
    Resilience.with_retries ~label:"t" ~max_attempts:4
      ~jitter:(Faultsim.Prng.create seed)
      ~on_backoff:(fun ~yields -> spent := !spent @ [ yields ])
      ~retryable:(function Failure _ -> true | _ -> false)
      (fun ~attempt ->
        attempts_seen := !attempts_seen @ [ attempt ];
        if attempt < 3 then failwith "transient" else 99)
  in
  Alcotest.(check int) "value" 99 v;
  Alcotest.(check (list int)) "attempts" [ 1; 2; 3 ] !attempts_seen;
  Alcotest.(check (list int)) "backoff spent = predicted schedule"
    (Resilience.backoff_schedule ~seed ~attempts:2)
    !spent

let with_retries_exhausts () =
  match
    Resilience.with_retries ~label:"t" ~max_attempts:3
      ~on_backoff:(fun ~yields:_ -> ())
      ~retryable:(function Failure _ -> true | _ -> false)
      (fun ~attempt:_ -> failwith "always")
  with
  | _ -> Alcotest.fail "expected Retries_exhausted"
  | exception Resilience.Retries_exhausted { attempts = 3; last = Failure _; _ }
    ->
      ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)

(* The busy reply's backoff hint is load-proportional, never constant:
   pin the formula max 1 (in_flight - high_water + queue_len). *)
let retry_after_hint_pinned () =
  let h = P.retry_after_hint in
  Alcotest.(check int) "at the mark" 1
    (h ~in_flight:1 ~high_water:1 ~queue_len:0);
  Alcotest.(check int) "under the mark floors at 1" 1
    (h ~in_flight:4 ~high_water:8 ~queue_len:0);
  Alcotest.(check int) "overshoot plus queue" 7
    (h ~in_flight:8 ~high_water:4 ~queue_len:3);
  Alcotest.(check int) "queue alone drives it" 5
    (h ~in_flight:4 ~high_water:4 ~queue_len:5);
  (* strictly monotone in queued work once past the mark *)
  List.iter
    (fun q ->
      Alcotest.(check int) "monotone in queue_len"
        (h ~in_flight:6 ~high_water:4 ~queue_len:q + 1)
        (h ~in_flight:6 ~high_water:4 ~queue_len:(q + 1)))
    [ 0; 1; 2; 5; 9 ]

(* --- journal: crash-safe durable store ---------------------------------- *)

module J = Server.Journal

let dir_counter = ref 0

let fresh_state_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cusand-test-state-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir d 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  d

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let in_state_dir f =
  let dir = fresh_state_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let entry_frame digest v = J.frame_of_payload (J.entry_payload ~digest (mstr v))

(* The store holds verdicts as JSON text. *)
let text_int text = Option.bind (Result.to_option (Mjson.of_string text)) Mjson.to_int

let assoc_int digest entries = Option.bind (List.assoc_opt digest entries) text_int

let journal_empty () =
  in_state_dir (fun dir ->
      let r = J.recover ~dir in
      Alcotest.(check int) "no entries" 0 (List.length r.J.entries);
      Alcotest.(check (option string)) "clean tail" None r.J.torn_tail)

let journal_roundtrip_last_wins () =
  in_state_dir (fun dir ->
      let st, r0 = J.open_store ~dir in
      Alcotest.(check int) "fresh store replays nothing" 0 r0.J.replayed;
      J.append st ~digest:"a" "1";
      J.append st ~digest:"b" "2";
      J.append st ~digest:"a" "3";
      Alcotest.(check int) "appends counted" 3 (J.appended_since_compact st);
      J.close st;
      let r = J.recover ~dir in
      Alcotest.(check (option string)) "clean tail" None r.J.torn_tail;
      Alcotest.(check int) "last write per digest wins" 2
        (List.length r.J.entries);
      Alcotest.(check (option int)) "a rewritten" (Some 3)
        (assoc_int "a" r.J.entries);
      Alcotest.(check (option int)) "b kept" (Some 2)
        (assoc_int "b" r.J.entries))

let journal_torn_tail_truncated () =
  in_state_dir (fun dir ->
      let whole =
        entry_frame "a" (Mjson.Int 1) ^ entry_frame "b" (Mjson.Int 2)
      in
      let torn = entry_frame "c" (Mjson.Int 3) in
      (* a kill -9 mid-append: the final frame stops 3 bytes short *)
      write_file (J.journal_file dir)
        (whole ^ String.sub torn 0 (String.length torn - 3));
      let r = J.recover ~dir in
      Alcotest.(check int) "valid prefix kept" 2 (List.length r.J.entries);
      (match r.J.torn_tail with
      | Some _ -> ()
      | None -> Alcotest.fail "torn tail not diagnosed");
      (* recovery truncated the garbage in place *)
      Alcotest.(check int) "file truncated to the valid prefix"
        (String.length whole)
        (Unix.stat (J.journal_file dir)).Unix.st_size;
      let r2 = J.recover ~dir in
      Alcotest.(check (option string)) "second recovery is clean" None
        r2.J.torn_tail;
      (* and the next append lands after the last committed frame *)
      let st, _ = J.open_store ~dir in
      J.append st ~digest:"d" "4";
      J.close st;
      let r3 = J.recover ~dir in
      Alcotest.(check int) "append after truncation recovers" 3
        (List.length r3.J.entries);
      Alcotest.(check (option int)) "new entry present" (Some 4)
        (assoc_int "d" r3.J.entries))

let journal_bitflip_keeps_prefix () =
  in_state_dir (fun dir ->
      let f1 = entry_frame "a" (Mjson.Int 1) in
      let f2 = entry_frame "b" (Mjson.Int 2) in
      let f3 = entry_frame "c" (Mjson.Int 3) in
      let b = Bytes.of_string (f1 ^ f2 ^ f3) in
      (* flip one payload byte in the middle frame *)
      let pos = String.length f1 + 8 + 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
      write_file (J.journal_file dir) (Bytes.to_string b);
      let r = J.recover ~dir in
      Alcotest.(check int) "only the prefix before the flip survives" 1
        (List.length r.J.entries);
      Alcotest.(check (option int)) "first entry intact" (Some 1)
        (assoc_int "a" r.J.entries);
      match r.J.torn_tail with
      | Some why ->
          Alcotest.(check bool)
            (Printf.sprintf "diagnosis names the checksum: %s" why)
            true
            (String.length why >= 8 && String.sub why 0 8 = "checksum")
      | None -> Alcotest.fail "corruption not diagnosed")

let journal_snapshot_then_journal () =
  in_state_dir (fun dir ->
      (* snapshot holds a=1, c=5; the journal has newer a=2 plus b=3:
         replay order is snapshot first, journal wins on conflict *)
      write_file (J.snapshot_file dir)
        (entry_frame "a" (Mjson.Int 1) ^ entry_frame "c" (Mjson.Int 5));
      write_file (J.journal_file dir)
        (entry_frame "a" (Mjson.Int 2) ^ entry_frame "b" (Mjson.Int 3));
      (* plus a stale compaction temp file from a crashed compaction *)
      let tmp = J.snapshot_file dir ^ ".tmp" in
      write_file tmp "garbage from a dead compactor";
      let r = J.recover ~dir in
      Alcotest.(check int) "union of snapshot and journal" 3
        (List.length r.J.entries);
      Alcotest.(check (option int)) "journal wins over snapshot" (Some 2)
        (assoc_int "a" r.J.entries);
      Alcotest.(check (option int)) "journal-only entry" (Some 3)
        (assoc_int "b" r.J.entries);
      Alcotest.(check (option int)) "snapshot-only entry" (Some 5)
        (assoc_int "c" r.J.entries);
      Alcotest.(check bool) "stale compaction tmp removed" false
        (Sys.file_exists tmp))

let journal_compact_preserves () =
  in_state_dir (fun dir ->
      let st, _ = J.open_store ~dir in
      J.append st ~digest:"a" "1";
      J.append st ~digest:"b" "2";
      J.append st ~digest:"a" "9";
      J.compact st ~entries:[ ("a", "9"); ("b", "2") ];
      Alcotest.(check int) "append counter reset" 0
        (J.appended_since_compact st);
      Alcotest.(check int) "journal truncated" 0
        (Unix.stat (J.journal_file dir)).Unix.st_size;
      (* appends after compaction land in the fresh journal *)
      J.append st ~digest:"c" "7";
      J.close st;
      let r = J.recover ~dir in
      Alcotest.(check int) "snapshot + fresh journal" 3
        (List.length r.J.entries);
      Alcotest.(check (option int)) "compacted entry served" (Some 9)
        (assoc_int "a" r.J.entries);
      Alcotest.(check (option int)) "post-compaction append served" (Some 7)
        (assoc_int "c" r.J.entries))

(* The crash property: cut the journal's byte stream at ANY point and
   recovery yields exactly the frames wholly inside the prefix — never
   a phantom entry, never a corrupt one, last write per digest. *)
let prop_journal_crash_point =
  let gen =
    QCheck.Gen.(pair (list_size (1 -- 12) (pair (int_bound 3) small_nat)) nat)
  in
  let print (writes, cut) =
    Printf.sprintf "cut=%d writes=[%s]" cut
      (String.concat ";"
         (List.map (fun (d, v) -> Printf.sprintf "d%d=%d" d v) writes))
  in
  QCheck.Test.make ~count:100
    ~name:"journal: recovery at any crash point = committed prefix"
    (QCheck.make ~print gen)
    (fun (writes, cut) ->
      in_state_dir (fun dir ->
          let frames =
            List.map
              (fun (d, v) ->
                entry_frame (Printf.sprintf "d%d" d) (Mjson.Int v))
              writes
          in
          let all = String.concat "" frames in
          let cut = cut mod (String.length all + 1) in
          write_file (J.journal_file dir) (String.sub all 0 cut);
          let r = J.recover ~dir in
          (* expected: last write per digest among fully-written frames *)
          let expected = Hashtbl.create 8 in
          let off = ref 0 in
          List.iter2
            (fun (d, v) f ->
              if !off + String.length f <= cut then
                Hashtbl.replace expected (Printf.sprintf "d%d" d) v;
              off := !off + String.length f)
            writes frames;
          List.length r.J.entries = Hashtbl.length expected
          && List.for_all
               (fun (dg, j) ->
                 match (text_int j, Hashtbl.find_opt expected dg) with
                 | Some v, Some v' -> v = v'
                 | _ -> false)
               r.J.entries))

(* --- daemon: end-to-end over a real socket ------------------------------ *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cusand-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Start a daemon on a fresh socket, run the body against it, then
   drain and hand the body's result plus the final stats back. *)
let with_daemon ?(cfg = fun c -> c) f =
  let path = fresh_sock () in
  let t = D.create (cfg (D.default_cfg ~socket_path:path)) in
  let server = Domain.spawn (fun () -> D.serve t) in
  let res =
    try f path t
    with e ->
      D.request_drain t;
      ignore (Domain.join server);
      raise e
  in
  D.request_drain t;
  let stats = Domain.join server in
  (res, stats)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

(* One full request/reply exchange, returning the reply frame's bytes
   (newline stripped). *)
let rpc_line path req =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      P.write_frame fd (P.request_to_json req);
      match P.read_frame fd with
      | Error e -> Alcotest.failf "rpc read: %s" (P.read_error_to_string e)
      | Ok line -> line)

let parse line =
  match Mjson.of_string line with
  | Error m -> Alcotest.failf "rpc reply does not parse: %s" m
  | Ok j -> j

let rpc path req = parse (rpc_line path req)

(* Send raw bytes (optionally torn: no newline, half a frame) and read
   whatever the daemon answers. *)
let rpc_raw path bytes ~tear =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd bytes;
      if tear then Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match P.read_frame fd with
      | Error e -> Alcotest.failf "rpc_raw read: %s" (P.read_error_to_string e)
      | Ok line -> (
          match Mjson.of_string line with
          | Error m -> Alcotest.failf "rpc_raw reply does not parse: %s" m
          | Ok j -> j))

let daemon_health_and_lint () =
  let (), stats =
    with_daemon (fun path _t ->
        let h = rpc path P.Health in
        Alcotest.(check (option string)) "health ok" (Some "ok")
          (member_str "status" h);
        Alcotest.(check (option bool)) "not draining" (Some false)
          (member_bool "draining" h);
        (* A daemon-served job must be byte-identical to the same job
           run locally through the engine (the batch CLI path). *)
        let job = P.Lint { target = "jacobi/jacobi" } in
        let local = mstr (run_ok job) in
        let r1 = rpc path (P.Submit job) in
        Alcotest.(check (option string)) "ok" (Some "ok") (member_str "status" r1);
        Alcotest.(check (option bool)) "first run not cached" (Some false)
          (member_bool "cached" r1);
        Alcotest.(check string) "byte-identical to local run" local
          (mstr (Option.get (Mjson.member "result" r1)));
        let r2 = rpc path (P.Submit job) in
        Alcotest.(check (option bool)) "second run cache hit" (Some true)
          (member_bool "cached" r2);
        Alcotest.(check string) "cache serves identical bytes" local
          (mstr (Option.get (Mjson.member "result" r2))))
  in
  Alcotest.(check int) "served" 2 stats.D.served;
  Alcotest.(check int) "cache hits" 1 stats.D.cache_hits

let daemon_crash_isolated () =
  let (), stats =
    with_daemon (fun path _t ->
        let r = rpc path (P.Submit P.Boom) in
        Alcotest.(check (option string)) "crashed status" (Some "crashed")
          (member_str "status" r);
        let pm = Option.get (Mjson.member "post_mortem" r) in
        (match member_str "error" pm with
        | Some e when String.length e > 0 -> ()
        | _ -> Alcotest.fail "post_mortem carries no error");
        (* The daemon survived: it answers, and the recycled worker
           still executes jobs. *)
        let h = rpc path P.Health in
        Alcotest.(check (option string)) "daemon alive after crash" (Some "ok")
          (member_str "status" h);
        let r2 = rpc path (P.Submit (P.Lint { target = "jacobi/jacobi" })) in
        Alcotest.(check (option string)) "worker slot recycled" (Some "ok")
          (member_str "status" r2))
  in
  Alcotest.(check int) "one crash counted" 1 stats.D.crashed

let daemon_protocol_errors_survive () =
  let (), stats =
    with_daemon (fun path _t ->
        (* bad JSON *)
        let r = rpc_raw path "this is not json\n" ~tear:false in
        Alcotest.(check (option string)) "bad json -> error reply" (Some "error")
          (member_str "status" r);
        (* torn frame: half a request, then EOF *)
        let r = rpc_raw path "{\"op\":\"hea" ~tear:true in
        Alcotest.(check (option string)) "torn frame -> error reply"
          (Some "error") (member_str "status" r);
        (* valid JSON, hostile content *)
        let r = rpc_raw path "{\"op\":\"\\u0000\\\"<&\"}\n" ~tear:false in
        Alcotest.(check (option string)) "hostile op -> error reply"
          (Some "error") (member_str "status" r);
        (* instant close: no reply expected, daemon must not care *)
        let fd = connect path in
        Unix.close fd;
        let h = rpc path P.Health in
        Alcotest.(check (option string)) "alive after abuse" (Some "ok")
          (member_str "status" h))
  in
  Alcotest.(check int) "client errors counted" 3 stats.D.client_errors

(* A frame of a million '[' fits the frame bound but not the JSON
   nesting cap: one error reply naming the cap, and the accept loop goes
   on to answer a health check. *)
let daemon_nesting_bomb_survived () =
  let (), stats =
    with_daemon (fun path _t ->
        let r = rpc_raw path (String.make 1_000_000 '[' ^ "\n") ~tear:false in
        Alcotest.(check (option string)) "nesting bomb -> error reply"
          (Some "error") (member_str "status" r);
        Alcotest.(check (option string)) "the error names the cap"
          (Some "bad JSON: at offset 1024: nesting deeper than 1024 levels")
          (member_str "message" r);
        let h = rpc path P.Health in
        Alcotest.(check (option string)) "alive after nesting bomb" (Some "ok")
          (member_str "status" h))
  in
  Alcotest.(check int) "client error counted" 1 stats.D.client_errors

(* Occupy the single worker with a spin long enough to observe the
   daemon under load, then check backpressure and health-under-load. *)
let daemon_backpressure () =
  let (), stats =
    with_daemon
      ~cfg:(fun c ->
        { c with D.workers = 1; queue_max = 1; watchdog = 60_000_000 })
      (fun path _t ->
        (* ~1s of in-sim spinning on the lone worker *)
        let spin_fd = connect path in
        P.write_frame spin_fd
          (P.request_to_json (P.Submit (P.Spin { steps = 8_000_000 })));
        (* admission is synchronous in the accept loop: once health
           reports the spin in flight, the next submit must shed *)
        let rec wait_busy n =
          if n = 0 then Alcotest.fail "spin never became in-flight"
          else
            let h = rpc path P.Health in
            if member_int "in_flight" h <> Some 1 then begin
              Unix.sleepf 0.01;
              wait_busy (n - 1)
            end
        in
        wait_busy 500;
        let b = rpc path (P.Submit (P.Lint { target = "jacobi/jacobi" })) in
        Alcotest.(check (option string)) "full queue sheds" (Some "busy")
          (member_str "status" b);
        (match member_int "retry_after" b with
        | Some n when n >= 1 -> ()
        | _ -> Alcotest.fail "busy reply carries no retry_after");
        Alcotest.(check (option int)) "high_water reported" (Some 1)
          (member_int "high_water" b);
        (* health stays answerable while saturated *)
        let h = rpc path P.Health in
        Alcotest.(check (option string)) "health under load" (Some "ok")
          (member_str "status" h);
        (* the wedged job itself resolves as a stalled verdict *)
        (match P.read_frame spin_fd with
        | Ok line -> (
            match Mjson.of_string line with
            | Ok r ->
                Alcotest.(check (option string)) "spin served" (Some "ok")
                  (member_str "status" r);
                Alcotest.(check (option string)) "spin stalled"
                  (Some "stalled")
                  (Option.bind (Mjson.member "result" r) (member_str "outcome"))
            | Error m -> Alcotest.failf "spin reply does not parse: %s" m)
        | Error e -> Alcotest.failf "spin reply: %s" (P.read_error_to_string e));
        Unix.close spin_fd)
  in
  Alcotest.(check int) "shed counted" 1 stats.D.shed;
  Alcotest.(check int) "stalled counted" 1 stats.D.stalled;
  Alcotest.(check bool) "queue never exceeded high water" true
    (stats.D.peak_in_flight <= 1)

(* A straggler past the drain deadline is cancelled and answered. *)
let daemon_drain_cancels_stragglers () =
  let (), stats =
    with_daemon
      ~cfg:(fun c ->
        {
          c with
          D.workers = 1;
          watchdog = 60_000_000;
          drain_timeout_s = 0.1;
        })
      (fun path t ->
        let spin_fd = connect path in
        P.write_frame spin_fd
          (P.request_to_json (P.Submit (P.Spin { steps = 8_000_000 })));
        let rec wait_inflight n =
          if n = 0 then Alcotest.fail "spin never became in-flight"
          else
            let h = rpc path P.Health in
            if member_int "in_flight" h <> Some 1 then begin
              Unix.sleepf 0.01;
              wait_inflight (n - 1)
            end
        in
        wait_inflight 500;
        D.request_drain t;
        (* the abandoned client is told, not left hanging *)
        (match P.read_frame spin_fd with
        | Ok line -> (
            match Mjson.of_string line with
            | Ok r ->
                Alcotest.(check (option string)) "straggler answered"
                  (Some "error") (member_str "status" r)
            | Error m -> Alcotest.failf "straggler reply does not parse: %s" m)
        | Error e ->
            Alcotest.failf "straggler reply: %s" (P.read_error_to_string e));
        Unix.close spin_fd)
  in
  Alcotest.(check int) "drain cancelled the straggler" 1 stats.D.drain_cancelled;
  (* the abandoned job is recorded and surfaced in the drain report *)
  let spin_digest = P.job_digest (P.Spin { steps = 8_000_000 }) in
  (match stats.D.abandoned with
  | [ (digest, desc) ] ->
      Alcotest.(check string) "abandoned digest recorded" spin_digest digest;
      Alcotest.(check bool) "abandoned description present" true
        (String.length desc > 0)
  | l -> Alcotest.failf "expected 1 abandoned job, got %d" (List.length l));
  match Mjson.member "abandoned_jobs" (D.stats_json stats) with
  | Some (Mjson.List [ entry ]) ->
      Alcotest.(check (option string)) "abandoned_jobs carries the digest"
        (Some spin_digest) (member_str "job" entry)
  | _ -> Alcotest.fail "stats JSON lacks the abandoned_jobs list"

(* --- daemon: durability ------------------------------------------------- *)

(* Verdicts served before a crash must be served byte-identically after
   a restart from the same state dir — including when the dying daemon
   tore its final journal frame. *)
let daemon_durable_restart () =
  in_state_dir (fun dir ->
      let job = P.Lint { target = "jacobi/jacobi" } in
      let local = mstr (run_ok job) in
      let bytes1, stats1 =
        with_daemon
          ~cfg:(fun c -> { c with D.state_dir = Some dir })
          (fun path _t ->
            Alcotest.(check (option bool)) "health reports durable"
              (Some true)
              (member_bool "durable" (rpc path P.Health));
            let r = rpc path (P.Submit job) in
            Alcotest.(check (option bool)) "first run not cached" (Some false)
              (member_bool "cached" r);
            mstr (Option.get (Mjson.member "result" r)))
      in
      Alcotest.(check string) "generation 1 byte-identical to local" local
        bytes1;
      Alcotest.(check int) "verdict journalled" 1 stats1.D.journal_appends;
      (* simulate a kill -9 mid-append: garbage after the last frame *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (J.journal_file dir)
      in
      output_string oc "\x00\x00\x01";
      close_out oc;
      let (), stats2 =
        with_daemon
          ~cfg:(fun c -> { c with D.state_dir = Some dir })
          (fun path _t ->
            let r = rpc path (P.Submit job) in
            Alcotest.(check (option bool))
              "replayed journal serves a cache hit" (Some true)
              (member_bool "cached" r);
            Alcotest.(check string) "recovered bytes identical" local
              (mstr (Option.get (Mjson.member "result" r))))
      in
      Alcotest.(check int) "one entry replayed" 1 stats2.D.replayed;
      Alcotest.(check int) "recovered hit counted" 1 stats2.D.cache_hits)

(* --- daemon: reply, journal and snapshot bytes ----------------------------
   The cache holds a verdict as the JSON text of its miss reply; every
   frame built around that text must equal the frame the tree would
   have printed, so clients and existing state directories see the same
   bytes. *)

let frame_jobs =
  [
    P.Lint { target = "jacobi/jacobi" };
    P.Soak { case = "cuda-to-mpi/send_device_devicesync"; seed = 3; faults = None };
    P.Bench { app = "pingpong"; flavor = "cusan" };
  ]

let entry_json digest result =
  mstr (Mjson.Obj [ ("digest", Mjson.Str digest); ("result", result) ])

(* [ok_frame] around a verdict's text is the frame of [ok_reply] around
   its tree, for every job kind, cached or not. *)
let ok_frame_matches_tree () =
  List.iter
    (fun job ->
      let result = run_ok job and job = P.job_digest job in
      List.iter
        (fun (cached, elapsed_s) ->
          Alcotest.(check string)
            (Fmt.str "%s cached=%b elapsed=%g" job cached elapsed_s)
            (mstr (P.ok_reply ~cached ~job ~elapsed_s result) ^ "\n")
            (P.ok_frame ~cached ~job ~elapsed_s (mstr result)))
        [ (true, 0.); (false, 0.); (false, 1.25e-4); (false, 3.) ];
      Alcotest.(check string) (job ^ " journal payload") (entry_json job result)
        (J.entry_payload ~digest:job (mstr result)))
    frame_jobs

(* Submit [job] twice: the miss reply carries the engine's bytes (a
   bench cell is timed, so it is held to its own hit only) and the hit
   frame is the reply tree built here. Returns the served result. *)
let miss_then_hit path job =
  let digest = P.job_digest job in
  let miss = rpc_line path (P.Submit job) in
  let reply = parse miss in
  let result = Option.get (Mjson.member "result" reply) in
  (match job with
  | P.Bench _ -> ()
  | _ ->
      let elapsed_s = Option.get (Option.bind (Mjson.member "elapsed_s" reply) Mjson.to_float) in
      Alcotest.(check string)
        (P.job_describe job ^ ": miss reply")
        (mstr (P.ok_reply ~job:digest ~elapsed_s (run_ok job)))
        miss);
  Alcotest.(check string)
    (P.job_describe job ^ ": hit frame")
    (mstr (P.ok_reply ~cached:true ~job:digest ~elapsed_s:0. result))
    (rpc_line path (P.Submit job));
  (digest, result)

(* Miss, hit, journal and snapshot bytes of a lint, a soak and a bench
   job, each against the frame of a tree built here. *)
let daemon_frames_byte_identical () =
  in_state_dir (fun dir ->
      let served, stats =
        with_daemon
          ~cfg:(fun c -> { c with D.state_dir = Some dir })
          (fun path _t ->
            let served = List.map (miss_then_hit path) frame_jobs in
            (* each miss was journalled before its reply left *)
            let journal, _, _ = J.scan_file (J.journal_file dir) in
            Alcotest.(check (list string)) "journal payloads"
              (List.map (fun (d, r) -> entry_json d r) served)
              journal;
            served)
      in
      Alcotest.(check int) "one hit per job" 3 stats.D.cache_hits;
      (* the drain compacted the journal into a snapshot of the same
         entries, in digest order *)
      Alcotest.(check string) "snapshot frames"
        (String.concat ""
           (List.map
              (fun (d, r) -> J.frame_of_payload (entry_json d r))
              (List.sort (fun (a, _) (b, _) -> compare a b) served)))
        (In_channel.with_open_bin (J.snapshot_file dir) In_channel.input_all))

(* A state directory in the frame format of a cache of trees (snapshot
   and journal both) replays into hits with the bytes that cache sent,
   and a restart serves the bytes the daemon sent before it. *)
let daemon_replays_state_dir () =
  in_state_dir (fun dir ->
      let results = List.map (fun job -> (P.job_digest job, run_ok job)) frame_jobs in
      let frames entries =
        String.concat ""
          (List.map (fun (d, r) -> J.frame_of_payload (entry_json d r)) entries)
      in
      (match results with
      | first :: rest ->
          write_file (J.snapshot_file dir) (frames [ first ]);
          write_file (J.journal_file dir) (frames rest)
      | [] -> ());
      let hits () =
        fst
          (with_daemon
             ~cfg:(fun c -> { c with D.state_dir = Some dir })
             (fun path _t -> List.map (fun job -> rpc_line path (P.Submit job)) frame_jobs))
      in
      let before = hits () in
      List.iter2
        (fun (digest, result) line ->
          Alcotest.(check string) (digest ^ ": replayed hit")
            (mstr (P.ok_reply ~cached:true ~job:digest ~elapsed_s:0. result))
            line)
        results before;
      Alcotest.(check (list string)) "hits after a restart" before (hits ()))

(* --- chaos acceptance ---------------------------------------------------
   Across 10 seeds, a job mix where >= 30% of jobs crash (boom) or
   wedge (spin): the daemon must serve every remaining job with replies
   byte-identical to a local batch run, emit a post-mortem for every
   killed job, keep the queue bounded, and drain cleanly. The rank-crash
   soak is a verdict, not a daemon crash: its rank post-mortem must
   carry the same bytes as the batch run's, so no wall-clock trace. *)

let chaos_jobs seed =
  [
    P.Lint { target = "jacobi/jacobi" };
    P.Boom;
    P.Soak { case = "legacy/default_barrier_blocking"; seed; faults = None };
    P.Spin { steps = 30_000 };
    P.Soak
      {
        case = "cuda-to-mpi/send_device_nosync_nok";
        seed;
        faults = Some "kernel_launch%0.3:fail,mpi_send%0.2:drop";
      };
    P.Boom;
    P.Soak
      {
        case = "cuda-to-mpi/send_device_devicesync";
        seed;
        faults = Some "mpi_send#1:crash";
      };
  ]

let daemon_chaos_acceptance () =
  (* Local ground truth, computed once per distinct job. *)
  let expected = Hashtbl.create 32 in
  let local job =
    let key = P.job_key job in
    match Hashtbl.find_opt expected key with
    | Some v -> v
    | None ->
        let v = mstr (run_ok job) in
        Hashtbl.add expected key v;
        v
  in
  let seeds = List.init 10 (fun i -> (i * 7) + 1) in
  let (), stats =
    with_daemon
      ~cfg:(fun c -> { c with D.workers = 2; queue_max = 4; cache_cap = 0 })
      (fun path _t ->
        List.iter
          (fun seed ->
            List.iter
              (fun job ->
                let r = rpc path (P.Submit job) in
                match job with
                | P.Boom ->
                    Alcotest.(check (option string))
                      (Fmt.str "seed %d: boom reaped" seed)
                      (Some "crashed") (member_str "status" r);
                    (match
                       Option.bind (Mjson.member "post_mortem" r)
                         (member_str "error")
                     with
                    | Some e when String.length e > 0 -> ()
                    | _ -> Alcotest.fail "killed job has no post-mortem")
                | P.Spin _ ->
                    Alcotest.(check (option string))
                      (Fmt.str "seed %d: wedge stalled" seed)
                      (Some "stalled")
                      (Option.bind (Mjson.member "result" r)
                         (member_str "outcome"))
                | _ ->
                    Alcotest.(check (option string))
                      (Fmt.str "seed %d: %s ok" seed (P.job_describe job))
                      (Some "ok") (member_str "status" r);
                    Alcotest.(check string)
                      (Fmt.str "seed %d: %s byte-identical" seed
                         (P.job_describe job))
                      (local job)
                      (mstr (Option.get (Mjson.member "result" r))))
              (chaos_jobs seed);
            (* queue stays bounded while the chaos runs *)
            match member_int "in_flight" (rpc path P.Health) with
            | Some n when n <= 4 -> ()
            | n ->
                Alcotest.failf "queue exceeded bound: %s"
                  (match n with Some n -> string_of_int n | None -> "?"))
          seeds)
  in
  Alcotest.(check int) "every killed job has a post-mortem" 20 stats.D.crashed;
  Alcotest.(check int) "every wedge became a stalled verdict" 10 stats.D.stalled;
  Alcotest.(check bool) "bounded queue never exceeded" true
    (stats.D.peak_in_flight <= 4);
  Alcotest.(check int) "nothing abandoned" 0 stats.D.drain_cancelled

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_parse_never_raises;
          Alcotest.test_case "parse errors are named" `Quick
            parse_request_errors;
          Alcotest.test_case "frame roundtrip" `Quick frame_roundtrip;
          Alcotest.test_case "closed peer" `Quick frame_closed;
          Alcotest.test_case "truncated frame" `Quick frame_truncated;
          Alcotest.test_case "oversized frame" `Quick frame_oversized;
          Alcotest.test_case "retry_after hint pinned" `Quick
            retry_after_hint_pinned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic results" `Quick engine_deterministic;
          Alcotest.test_case "unknown ids rejected" `Quick engine_rejects_unknown;
          Alcotest.test_case "case and target lookup" `Quick engine_lookup;
          Alcotest.test_case "boom raises" `Quick engine_boom_raises;
          Alcotest.test_case "spin stalls at budget" `Quick engine_spin_stalls;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic under seed" `Quick
            backoff_deterministic;
          Alcotest.test_case "pinned schedule" `Quick backoff_pinned;
          Alcotest.test_case "with_retries spends schedule" `Quick
            with_retries_spends_schedule;
          Alcotest.test_case "with_retries exhausts" `Quick with_retries_exhausts;
        ] );
      ( "journal",
        [
          Alcotest.test_case "empty store" `Quick journal_empty;
          Alcotest.test_case "roundtrip, last write wins" `Quick
            journal_roundtrip_last_wins;
          Alcotest.test_case "torn tail truncated" `Quick
            journal_torn_tail_truncated;
          Alcotest.test_case "bit flip keeps valid prefix" `Quick
            journal_bitflip_keeps_prefix;
          Alcotest.test_case "snapshot then journal" `Quick
            journal_snapshot_then_journal;
          Alcotest.test_case "compaction preserves entries" `Quick
            journal_compact_preserves;
          QCheck_alcotest.to_alcotest prop_journal_crash_point;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "health, lint, cache" `Quick daemon_health_and_lint;
          Alcotest.test_case "crash isolation" `Quick daemon_crash_isolated;
          Alcotest.test_case "protocol abuse survived" `Quick
            daemon_protocol_errors_survive;
          Alcotest.test_case "nesting bomb survived" `Quick
            daemon_nesting_bomb_survived;
          Alcotest.test_case "backpressure + health under load" `Quick
            daemon_backpressure;
          Alcotest.test_case "drain cancels stragglers" `Quick
            daemon_drain_cancels_stragglers;
          Alcotest.test_case "durable restart serves identical bytes" `Quick
            daemon_durable_restart;
          Alcotest.test_case "ok frame = frame of the reply tree" `Quick
            ok_frame_matches_tree;
          Alcotest.test_case "reply and snapshot frames byte-identical" `Quick
            daemon_frames_byte_identical;
          Alcotest.test_case "state directory replays into identical hits" `Quick
            daemon_replays_state_dir;
        ] );
      ("chaos", [ Alcotest.test_case "acceptance" `Slow daemon_chaos_acceptance ]);
    ]
