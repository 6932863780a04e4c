(* cusand: the long-running analysis daemon. Accepts lint / soak /
   bench jobs over a Unix-domain socket (the cusand/2 wire protocol),
   shards them across a domain pool, and survives anything a
   job does: crashes are reaped into post-mortem replies, wedges become
   watchdog [stalled] verdicts, overload is shed with retry_after
   hints, and SIGTERM drains gracefully — admission stops, in-flight
   jobs finish or are cancelled at the deadline, the final stats are
   flushed, and the process exits 0.

   Under --state DIR the result cache is durable: verdicts are written
   through to an append-only checksummed journal and replayed on the
   next start, so even kill -9 loses nothing a client has seen. Under
   --supervise the process forks the daemon as a child and restarts it
   with capped exponential backoff whenever it dies abnormally — the
   restart path is exactly the journal-recovery path, so a supervised
   daemon heals itself with its cache intact. See lib/server and
   DESIGN.md. *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "cusand.sock"

let usage () =
  Fmt.pr
    "usage: cusand [options]@.@.\
    \  --socket PATH      listen on PATH (default %s)@.\
    \  --workers N        worker domains (default 2)@.\
    \  --queue-max N      in-flight high-water mark; beyond it jobs are@.\
    \                     shed with a busy/retry_after reply (default 8)@.\
    \  --watchdog STEPS   scheduler step budget per job; wedged jobs@.\
    \                     become stalled verdicts (default %d)@.\
    \  --cache-cap N      max cached results, 0 disables (default 1024)@.\
    \  --state DIR        durable result cache: append-only journal in DIR,@.\
    \                     replayed on startup (survives kill -9)@.\
    \  --compact-every N  journal appends between compactions (default 256)@.\
    \  --drain-timeout S  wall-clock budget for in-flight jobs at drain@.\
    \                     (default 30)@.\
    \  --stats FILE       also write the final drain stats JSON to FILE@.\
    \  --supervise        run as a supervisor: fork the daemon and restart@.\
    \                     it on abnormal exit with capped backoff@.\
    \  --pid-file PATH    write the daemon's pid to PATH (under --supervise@.\
    \                     this is the child's pid, rewritten per restart)@.\
    \  --verbose          log admissions, sheds, reaped jobs@.@.\
     SIGTERM or SIGINT (or a shutdown frame) requests a graceful drain.@."
    default_socket Server.Engine.default_watchdog

let die msg =
  Fmt.epr "cusand: %s@." msg;
  usage ();
  exit 2

let pos_int flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> die (Fmt.str "%s expects a positive integer, got %S" flag v)

(* A path value may not look like a flag: [--state --supervise] must not
   create a state directory named "--supervise". *)
let is_value v = not (String.length v > 0 && v.[0] = '-')

let write_pid_file path pid =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (string_of_int pid ^ "\n"))
  with Sys_error msg -> Fmt.epr "cusand: cannot write pid file: %s@." msg

(* The daemon proper: create, install drain-on-signal, serve, report. *)
let run_daemon cfg stats_file =
  let t =
    try Server.Daemon.create cfg
    with Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "cusand: cannot listen on %s: %s (%s %s)@."
        cfg.Server.Daemon.socket_path (Unix.error_message e) fn arg;
      exit 1
  in
  (* The handlers only flip an atomic; the accept loop notices at its
     next select tick (EINTR included) and starts the drain. *)
  let on_signal _ = Server.Daemon.request_drain t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let stats = Server.Daemon.serve t in
  let report =
    Reporting.Mjson.Obj
      [
        ("schema", Reporting.Mjson.Str Server.Protocol.schema);
        ("event", Reporting.Mjson.Str "drained");
        ("stats", Server.Daemon.stats_json stats);
      ]
  in
  let line = Reporting.Mjson.to_string report in
  print_endline line;
  (match stats_file with
  | None -> ()
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (line ^ "\n")));
  exit 0

(* Self-healing: fork the daemon, wait, and restart it whenever it dies
   without having been asked to. Clean exit (drain completed, status 0)
   ends supervision; an abnormal death is restarted after a capped
   exponential backoff, with the streak reset once a child survives
   [healthy_uptime_s] — so a crash loop backs off but a one-off crash
   recovers almost instantly. Restart goes through the normal startup
   path, journal recovery included. *)
let healthy_uptime_s = 5.0

let supervise cfg stats_file pid_file =
  let child = ref (-1) in
  let stopping = ref false in
  let forward signum _ =
    stopping := true;
    if !child > 0 then try Unix.kill !child signum with Unix.Unix_error _ -> ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (forward Sys.sigterm));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (forward Sys.sigint));
  let rec waitpid pid =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  in
  let signal_name n =
    if n = Sys.sigkill then "SIGKILL"
    else if n = Sys.sigterm then "SIGTERM"
    else if n = Sys.sigint then "SIGINT"
    else if n = Sys.sigsegv then "SIGSEGV"
    else if n = Sys.sigabrt then "SIGABRT"
    else Fmt.str "signal %d" n
  in
  let describe = function
    | Unix.WEXITED n -> Fmt.str "exited %d" n
    | Unix.WSIGNALED n -> Fmt.str "killed by %s" (signal_name n)
    | Unix.WSTOPPED n -> Fmt.str "stopped by %s" (signal_name n)
  in
  let streak = ref 0 in
  let rec loop () =
    let started = Unix.gettimeofday () in
    match Unix.fork () with
    | 0 -> run_daemon cfg stats_file (* never returns *)
    | pid -> (
        child := pid;
        Option.iter (fun p -> write_pid_file p pid) pid_file;
        let status = waitpid pid in
        child := -1;
        let uptime = Unix.gettimeofday () -. started in
        match status with
        | Unix.WEXITED 0 ->
            Fmt.epr "cusand-supervisor: daemon drained cleanly@.";
            exit 0
        | status when !stopping ->
            (* We asked it to stop and it died un-cleanly anyway; do
               not resurrect what the operator is tearing down. *)
            Fmt.epr "cusand-supervisor: daemon %s during shutdown@."
              (describe status);
            exit 1
        | status ->
            if uptime >= healthy_uptime_s then streak := 0;
            incr streak;
            let delay =
              Float.min 5.0 (0.05 *. (2. ** float_of_int (min !streak 8)))
            in
            Fmt.epr
              "cusand-supervisor: daemon %s after %.2fs; restart #%d in \
               %.2fs@."
              (describe status) uptime !streak delay;
            Unix.sleepf delay;
            if !stopping then begin
              (* the operator tore us down while we were backing off
                 between restarts: there is nothing left to stop *)
              Fmt.epr "cusand-supervisor: stop requested during backoff@.";
              exit 0
            end
            else loop ())
  in
  loop ()

let () =
  let cfg = ref (Server.Daemon.default_cfg ~socket_path:default_socket) in
  let stats_file = ref None in
  let pid_file = ref None in
  let supervised = ref false in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        usage ();
        exit 0
    | "--socket" :: v :: rest when is_value v ->
        cfg := { !cfg with Server.Daemon.socket_path = v };
        parse rest
    | "--workers" :: v :: rest ->
        cfg := { !cfg with Server.Daemon.workers = pos_int "--workers" v };
        parse rest
    | "--queue-max" :: v :: rest ->
        cfg := { !cfg with Server.Daemon.queue_max = pos_int "--queue-max" v };
        parse rest
    | "--watchdog" :: v :: rest ->
        cfg := { !cfg with Server.Daemon.watchdog = pos_int "--watchdog" v };
        parse rest
    | "--cache-cap" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
            cfg := { !cfg with Server.Daemon.cache_cap = n };
            parse rest
        | _ -> die (Fmt.str "--cache-cap expects a non-negative integer, got %S" v))
    | "--state" :: v :: rest when is_value v ->
        cfg := { !cfg with Server.Daemon.state_dir = Some v };
        parse rest
    | "--compact-every" :: v :: rest ->
        cfg :=
          { !cfg with Server.Daemon.compact_every = pos_int "--compact-every" v };
        parse rest
    | "--drain-timeout" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s >= 0. ->
            cfg := { !cfg with Server.Daemon.drain_timeout_s = s };
            parse rest
        | _ ->
            die (Fmt.str "--drain-timeout expects a non-negative number, got %S" v))
    | "--stats" :: v :: rest when is_value v ->
        stats_file := Some v;
        parse rest
    | "--pid-file" :: v :: rest when is_value v ->
        pid_file := Some v;
        parse rest
    | "--supervise" :: rest ->
        supervised := true;
        parse rest
    | "--verbose" :: rest ->
        cfg := { !cfg with Server.Daemon.verbose = true };
        parse rest
    | (("--socket" | "--state" | "--stats" | "--pid-file") as flag) :: _
    | [
        (( "--workers" | "--queue-max" | "--watchdog" | "--cache-cap"
         | "--compact-every" | "--drain-timeout" ) as flag);
      ] ->
        die (flag ^ " requires a value")
    | arg :: _ -> die (Fmt.str "unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !supervised then supervise !cfg !stats_file !pid_file
  else begin
    Option.iter (fun p -> write_pid_file p (Unix.getpid ())) !pid_file;
    run_daemon !cfg !stats_file
  end
