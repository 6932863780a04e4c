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
  let set f v = cfg := f !cfg v in
  let stats_file = ref None in
  let pid_file = ref None in
  let supervised = ref false in
  Trace.Cli.parse ~prog:"cusand"
    ~usage:
      "usage: cusand [options]\n\n\
       SIGTERM or SIGINT (or a shutdown frame) requests a graceful drain.\n\n\
       options:"
    [
      Trace.Cli.value "--socket"
        (set (fun c v -> { c with Server.Daemon.socket_path = v }))
        ("PATH listen on PATH (default " ^ default_socket ^ ")");
      Trace.Cli.workers ~min:1 "--workers"
        (set (fun c n -> { c with Server.Daemon.workers = n }))
        "N worker domains (default 2)";
      Trace.Cli.int ~min:1 "--queue-max"
        (set (fun c n -> { c with Server.Daemon.queue_max = n }))
        "N in-flight high-water mark; more jobs are shed as busy (default 8)";
      Trace.Cli.int ~min:1 "--watchdog"
        (set (fun c n -> { c with Server.Daemon.watchdog = n }))
        (Fmt.str "STEPS step budget per job; wedged jobs become stalled (default %d)"
           Server.Engine.default_watchdog);
      Trace.Cli.int ~min:0 "--cache-cap"
        (set (fun c n -> { c with Server.Daemon.cache_cap = n }))
        "N max cached results, 0 disables (default 1024)";
      Trace.Cli.value "--state"
        (set (fun c v -> { c with Server.Daemon.state_dir = Some v }))
        "DIR durable cache: a journal in DIR, replayed on start (survives kill -9)";
      Trace.Cli.int ~min:1 "--compact-every"
        (set (fun c n -> { c with Server.Daemon.compact_every = n }))
        "N journal appends between compactions (default 256)";
      Trace.Cli.float ~min:0. "--drain-timeout"
        (set (fun c s -> { c with Server.Daemon.drain_timeout_s = s }))
        "S wall-clock budget for in-flight jobs at drain (default 30)";
      Trace.Cli.string "--stats" stats_file
        "FILE also write the final drain stats JSON to FILE";
      ( "--supervise",
        Arg.Set supervised,
        " fork the daemon and restart it on abnormal exit, with backoff" );
      Trace.Cli.string "--pid-file" pid_file
        "PATH write the daemon's pid to PATH (per restart under --supervise)";
      ( "--verbose",
        Arg.Unit (set (fun c () -> { c with Server.Daemon.verbose = true })),
        " log admissions, sheds, reaped jobs" );
    ];
  if !supervised then supervise !cfg !stats_file !pid_file
  else begin
    Option.iter (fun p -> write_pid_file p (Unix.getpid ())) !pid_file;
    run_daemon !cfg !stats_file
  end
