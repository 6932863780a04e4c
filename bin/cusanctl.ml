(* cusanctl: the cusand client. Sends one request frame over the
   Unix-domain socket, prints the reply JSON on stdout, and maps the
   reply status onto the exit code.

   The retry loop is the client half of the daemon's backpressure
   contract: a busy/retry_after reply (or a daemon that is not up yet)
   is retried through Resilience.with_retries with the same seeded
   Prng-jittered exponential backoff the in-simulation recovery paths
   use — the yield counts are deterministic under --seed, and the
   client folds the daemon's retry_after hint and a wall-clock quantum
   into actual sleeps.

   Beyond single requests, [bench] (no app/flavor) runs a sustained
   deterministic campaign of lint/soak jobs, verifying every daemon
   verdict byte-for-byte against the same job computed in-process — it
   doubles as the kill/restart recovery soak. *)

module Mjson = Reporting.Mjson

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "cusand.sock"

(* Seconds per backoff yield: Resilience hands us virtual yield counts
   (2, 4, 8, ... plus jitter); the client maps them to wall clock,
   scaled by the daemon's latest retry_after hint. *)
let quantum = 0.005

let usage =
  "usage: cusanctl [options] COMMAND\n\n\
   commands:\n\
  \  lint TARGET                static race lint of one kirlint target\n\
  \  soak CASE                  run one matrix case (see --faults/--fault-seed)\n\
  \  bench APP FLAVOR           run one bench cell (pingpong|jacobi|tealeaf)\n\
  \  bench                      sustained campaign: --jobs deterministic\n\
  \                             lint/soak jobs, every verdict verified\n\
  \                             byte-for-byte against a local run\n\
  \  boom                       chaos drill: crash a worker on purpose\n\
  \  spin STEPS                 wedge drill: occupy a worker until the\n\
  \                             step-budget watchdog fires\n\
  \  health                     liveness + queue depth\n\
  \  stats                      daemon counters\n\
  \  shutdown                   request a graceful drain\n\n\
   exit codes: 0 ok, 1 job crashed or campaign verdict mismatch (post-mortem\n\
   printed), 2 client/protocol error, 3 daemon unreachable or still busy\n\
   after all retries\n\n\
   options:"

let socket = ref default_socket
let faults = ref None
let fault_seed = ref 0
let seed = ref 1
let retries = ref 6
let jobs = ref 25
let recheck = ref false

let job_of_words words : Server.Protocol.job =
  match words with
  | [ "lint"; target ] -> Lint { target }
  | [ "soak"; case ] -> Soak { case; seed = !fault_seed; faults = !faults }
  | [ "bench"; app; flavor ] -> Bench { app; flavor }
  | [ "boom" ] -> Boom
  | [ "spin"; n ] -> (
      match int_of_string_opt n with
      | Some steps when steps > 0 -> Spin { steps }
      | _ ->
          Trace.Cli.usage_error
            (Fmt.str "spin expects a positive step count, got %S" n))
  | cmd -> Trace.Cli.usage_error (Fmt.str "bad command %S" (String.concat " " cmd))

type cmd = Rpc of Server.Protocol.request | Campaign

let cmd_of_words words : cmd =
  match words with
  | [ "health" ] -> Rpc Health
  | [ "stats" ] -> Rpc Stats
  | [ "shutdown" ] -> Rpc Shutdown
  | [ "bench" ] -> Campaign
  | [] -> Trace.Cli.usage_error "no command given"
  | words -> Rpc (Submit (job_of_words words))

exception Conn_lost of string
(* The daemon went away mid-conversation (e.g. killed between our
   request and its reply) — a connection failure for the retry loop,
   not a protocol error. *)

(* One connection, one frame each way. *)
let roundtrip ~socket req : Mjson.t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.
   with Unix.Unix_error _ -> ());
  Server.Protocol.write_frame fd (Server.Protocol.request_to_json req);
  match Server.Protocol.read_frame fd with
  | Error e -> raise (Conn_lost (Server.Protocol.read_error_to_string e))
  | Ok line -> (
      match Mjson.of_string line with
      | Error msg -> failwith ("bad reply JSON: " ^ msg)
      | Ok j -> j)

exception Busy of int

let is_conn_error = function
  | Conn_lost _ -> true
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EPIPE
        | Unix.EAGAIN ),
        _,
        _ ) ->
      (* daemon not up yet, or it went away mid-frame *)
      true
  | _ -> false

let status j =
  match Mjson.member "status" j |> Fun.flip Option.bind Mjson.to_str with
  | Some s -> s
  | None -> "error"

(* One request under the client policy: bounded seeded retries for busy
   replies and connection failures. *)
let rpc req : Mjson.t =
  let hint = ref 1 in
  Resilience.with_retries ~label:"cusanctl" ~max_attempts:!retries
    ~jitter:(Faultsim.Prng.create !seed)
    ~on_backoff:(fun ~yields ->
      Unix.sleepf (quantum *. float_of_int (yields * !hint)))
    ~retryable:(function Busy _ -> true | e -> is_conn_error e)
    (fun ~attempt:_ ->
      let j = roundtrip ~socket:!socket req in
      match status j with
      | "busy" ->
          hint :=
            (match
               Mjson.member "retry_after" j |> Fun.flip Option.bind Mjson.to_int
             with
            | Some n when n > 0 -> n
            | _ -> 1);
          raise (Busy !hint)
      | _ -> j)

let exit_of_reply reply =
  match status reply with
  | "ok" -> exit 0
  | "crashed" -> exit 1
  | _ -> exit 2

(* --- bench campaign: the soak driver ------------------------------------ *)

(* A deterministic seeded mix of lint and soak jobs (the two cheap,
   verifiable job kinds). Every daemon verdict is compared byte-for-byte
   against the same job computed locally — cusanctl links the engine, so
   the client is its own oracle. This doubles as the kill/recover soak:
   run it, kill -9 the daemon mid-campaign, and the supervised restart
   plus journal recovery must keep every verdict byte-identical. *)
let campaign () =
  let lints = Server.Engine.lint_target_ids () in
  let soaks = Server.Engine.soak_case_ids () in
  if lints = [] || soaks = [] then
    Trace.Cli.usage_error "no lint targets or soak cases built in";
  let prng = Faultsim.Prng.create (!seed + 7) in
  let pick lst =
    List.nth lst
      (min (List.length lst - 1)
         (int_of_float (Faultsim.Prng.float prng *. float_of_int (List.length lst))))
  in
  let mix =
    List.init !jobs (fun _ : Server.Protocol.job ->
        if Faultsim.Prng.float prng < 0.5 then Lint { target = pick lints }
        else
          Soak
            {
              case = pick soaks;
              seed = int_of_float (Faultsim.Prng.float prng *. 8.);
              faults = None;
            })
  in
  (* Local oracle, memoised by digest (the campaign repeats jobs on
     purpose, to exercise the cache). *)
  let expected : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let expect digest job =
    match Hashtbl.find_opt expected digest with
    | Some bytes -> bytes
    | None ->
        let bytes =
          match Server.Engine.run_job job with
          | Ok result -> Mjson.to_string result
          | Error msg ->
              Trace.Cli.usage_error ("campaign job failed locally: " ^ msg)
        in
        Hashtbl.replace expected digest bytes;
        bytes
  in
  let order = ref [] in (* distinct digests, first-submission order *)
  let ok = ref 0 and cache_hits = ref 0 and mismatches = ref 0 in
  let failed = ref 0 and unreachable = ref 0 in
  let consecutive_unreachable = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i job ->
      if !consecutive_unreachable < 3 then begin
        let digest = Server.Protocol.job_digest job in
        if not (Hashtbl.mem expected digest) then order := digest :: !order;
        let want = expect digest job in
        match rpc (Submit job) with
        | reply -> (
            consecutive_unreachable := 0;
            match status reply with
            | "ok" ->
                let got =
                  match Mjson.member "result" reply with
                  | Some r -> Mjson.to_string r
                  | None -> "<missing result>"
                in
                if got = want then begin
                  incr ok;
                  if
                    Mjson.member "cached" reply
                    |> Fun.flip Option.bind Mjson.to_bool
                    = Some true
                  then incr cache_hits
                end
                else begin
                  incr mismatches;
                  Fmt.epr "cusanctl: verdict mismatch on job %d (%s): %s@." i
                    (Server.Protocol.job_describe job) digest
                end
            | s ->
                incr failed;
                Fmt.epr "cusanctl: job %d (%s) answered %s@." i
                  (Server.Protocol.job_describe job) s)
        | exception Resilience.Retries_exhausted { attempts; last; _ } ->
            incr unreachable;
            incr consecutive_unreachable;
            Fmt.epr "cusanctl: job %d unreachable after %d attempts (%s)@." i
              attempts (Printexc.to_string last)
      end)
    mix;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let aborted = !consecutive_unreachable >= 3 in
  (* Recheck pass: every distinct job again, demanding a cache hit with
     the same bytes — duplicates must neither be lost nor recomputed. *)
  let recheck_hits = ref 0 and recheck_misses = ref 0 in
  if !recheck && not aborted then
    List.iter
      (fun digest ->
        let job =
          (* recover the job from the digest via the expected table's
             companion list: recompute from the mix *)
          List.find (fun j -> Server.Protocol.job_digest j = digest) mix
        in
        match rpc (Submit job) with
        | reply ->
            let cached =
              Mjson.member "cached" reply |> Fun.flip Option.bind Mjson.to_bool
              = Some true
            in
            let got =
              match Mjson.member "result" reply with
              | Some r -> Mjson.to_string r
              | None -> "<missing result>"
            in
            if cached && got = Hashtbl.find expected digest then
              incr recheck_hits
            else begin
              incr recheck_misses;
              Fmt.epr "cusanctl: recheck %s: cached=%b, bytes %s@." digest
                cached
                (if got = Hashtbl.find expected digest then "match"
                 else "MISMATCH")
            end
        | exception Resilience.Retries_exhausted _ ->
            incr recheck_misses;
            Fmt.epr "cusanctl: recheck %s unreachable@." digest)
      (List.rev !order);
  let summary =
    Mjson.Obj
      ([
         ("schema", Mjson.Str Server.Protocol.schema);
         ("event", Mjson.Str "bench");
         ("jobs", Mjson.Int !jobs);
         ("distinct", Mjson.Int (Hashtbl.length expected));
         ("ok", Mjson.Int !ok);
         ("cache_hits", Mjson.Int !cache_hits);
         ("mismatches", Mjson.Int !mismatches);
         ("failed", Mjson.Int !failed);
         ("unreachable", Mjson.Int !unreachable);
         ("aborted", Mjson.Bool aborted);
         ("elapsed_s", Mjson.Float elapsed_s);
         ( "jobs_per_s",
           Mjson.Float
             (if elapsed_s > 0. then float_of_int !ok /. elapsed_s else 0.) );
       ]
      @
      if !recheck then
        [
          ( "recheck",
            Mjson.Obj
              [
                ("hits", Mjson.Int !recheck_hits);
                ("misses", Mjson.Int !recheck_misses);
              ] );
        ]
      else [])
  in
  print_endline (Mjson.to_string summary);
  if aborted || !unreachable > 0 then exit 3
  else if !mismatches > 0 || !failed > 0 || !recheck_misses > 0 then exit 1
  else exit 0

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let words = ref [] in
  Trace.Cli.parse ~prog:"cusanctl" ~usage
    ~anon:(fun w -> words := !words @ [ w ])
    [
      Trace.Cli.value "--socket"
        (fun v -> socket := v)
        ("PATH daemon socket (default " ^ default_socket ^ ")");
      Trace.Cli.string "--faults" faults
        "SPEC fault plan for soak (cutests --faults grammar)";
      Trace.Cli.int "--fault-seed"
        (fun n -> fault_seed := n)
        "N fault-plan seed for soak (default 0)";
      Trace.Cli.int "--seed" (fun n -> seed := n) "N backoff jitter seed (default 1)";
      Trace.Cli.int ~min:1 "--retries"
        (fun n -> retries := n)
        "N max attempts against a busy or absent daemon (default 6)";
      Trace.Cli.int ~min:1 "--jobs"
        (fun n -> jobs := n)
        "N campaign length for bare bench (default 25)";
      ( "--recheck",
        Arg.Set recheck,
        " campaign: re-submit each distinct job; require a byte-identical \
         cache hit" );
    ];
  match cmd_of_words !words with
  | Campaign -> campaign ()
  | Rpc req -> (
      match rpc req with
      | reply ->
          print_endline (Mjson.to_string reply);
          exit_of_reply reply
      | exception Resilience.Retries_exhausted { attempts; last; _ } ->
          Fmt.epr "cusanctl: giving up after %d attempts (%s)@." attempts
            (Printexc.to_string last);
          exit 3
      | exception Failure msg ->
          Fmt.epr "cusanctl: %s@." msg;
          exit 2
      | exception Unix.Unix_error (e, fn, _) ->
          Fmt.epr "cusanctl: %s: %s (%s)@." !socket (Unix.error_message e) fn;
          exit 3)
