(* The cusand daemon core: a long-running analysis service over a
   Unix-domain socket, sharding jobs across the lib/pool domain pool.

   The robustness surface is the design, not a bolt-on:

   - Crash isolation: a job that raises is reaped by its worker into a
     post-mortem reply (error + backtrace) and the worker slot is
     recycled; nothing a job does takes the daemon down. The scheduler
     step-budget watchdog inside every harness run turns wedged
     schedules into labelled [stalled] verdicts, so a worker can never
     be occupied forever.

   - Bounded admission with backpressure: at most [queue_max] jobs are
     in flight (queued + running); past the high-water mark the daemon
     sheds load with an explicit busy/[retry_after] reply instead of
     queueing unboundedly. Health and stats requests are answered
     inline by the accept loop, so the daemon stays observable while
     saturated.

   - Durable result cache: ok verdicts are cached content-addressed by
     the protocol's canonical job key, as the JSON text the miss's reply
     carried, and, under [--state DIR], written through to an
     append-only checksummed journal ({!Journal}). A hit sends the
     cached text inside a fresh envelope, never re-serializing it. A
     committed verdict survives [kill -9]; restart replays the valid
     journal prefix back into the cache and truncates any torn tail.
     Correctness rests on engine determinism (crashes are never
     cached, and replayed duplicates collapse by digest), so jobs run
     with the flight recorder off, exactly as the batch tools run them:
     an armed recorder would put wall-clock lines into post-mortems.

   - Graceful drain: [request_drain] (SIGTERM in bin/cusand) stops
     admission; in-flight jobs get [drain_timeout_s] of wall clock to
     finish, stragglers are cooperatively cancelled and their clients
     told so, and the final stats (including which jobs were
     abandoned) survive as the drain report.

   Exactly one side ever answers a job's connection: whoever flips the
   in-flight record's [replied] flag (worker on completion, drain on
   abandonment) owns the reply, the close, and the accounting. *)

module Mjson = Reporting.Mjson

type cfg = {
  socket_path : string;
  workers : int;  (* worker domains *)
  queue_max : int;  (* high-water mark for in-flight jobs *)
  watchdog : int;  (* scheduler step budget per job *)
  cache_cap : int;  (* max cached results; 0 disables the cache *)
  drain_timeout_s : float;
  state_dir : string option;  (* durable journal directory; None = RAM only *)
  compact_every : int;  (* journal appends between compactions *)
  verbose : bool;
}

let default_cfg ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_max = 8;
    watchdog = Engine.default_watchdog;
    cache_cap = 1024;
    drain_timeout_s = 30.;
    state_dir = None;
    compact_every = 256;
    verbose = false;
  }

type stats = {
  mutable served : int;  (* ok replies, cache hits included *)
  mutable cache_hits : int;
  mutable shed : int;  (* busy replies *)
  mutable crashed : int;  (* jobs reaped with a daemon post-mortem *)
  mutable stalled : int;  (* jobs whose verdict carried a stall *)
  mutable client_errors : int;  (* error replies: bad frames, bad jobs *)
  mutable drain_cancelled : int;  (* jobs abandoned at drain deadline *)
  mutable peak_in_flight : int;
  mutable replayed : int;  (* cache entries recovered from the journal *)
  mutable journal_appends : int;
  mutable compactions : int;
  mutable abandoned : (string * string) list;
      (* (digest, description) of jobs cancelled at the drain deadline,
         newest first — the drain report names what it threw away *)
}

let stats_json (s : stats) : Mjson.t =
  Mjson.Obj
    [
      ("served", Mjson.Int s.served);
      ("cache_hits", Mjson.Int s.cache_hits);
      ("shed", Mjson.Int s.shed);
      ("crashed", Mjson.Int s.crashed);
      ("stalled", Mjson.Int s.stalled);
      ("client_errors", Mjson.Int s.client_errors);
      ("drain_cancelled", Mjson.Int s.drain_cancelled);
      ("peak_in_flight", Mjson.Int s.peak_in_flight);
      ("replayed", Mjson.Int s.replayed);
      ("journal_appends", Mjson.Int s.journal_appends);
      ("compactions", Mjson.Int s.compactions);
      ( "abandoned_jobs",
        Mjson.List
          (List.rev_map
             (fun (digest, describe) ->
               Mjson.Obj
                 [ ("job", Mjson.Str digest); ("describe", Mjson.Str describe) ])
             s.abandoned) );
    ]

type inflight = {
  fd : Unix.file_descr;
  job : Protocol.job;
  digest : string;
  mutable replied : bool;  (* reply ownership: flipped exactly once *)
  mutable handle : Pool.handle option;
}

type t = {
  cfg : cfg;
  listen : Unix.file_descr;
  pool : Pool.t;
  m : Mutex.t;
  jobs : (int, inflight) Hashtbl.t;
  mutable next_ticket : int;
  mutable in_flight : int;
  cache : (string, string) Hashtbl.t;
      (* digest -> the verdict's JSON text: the only copy of a result the
         daemon keeps, shared by hit frames, the journal and snapshots *)
  journal : Journal.t option;
  stats : stats;
  drain : bool Atomic.t;
}

let create cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.create: workers must be >= 1";
  if cfg.queue_max < 1 then invalid_arg "Daemon.create: queue_max must be >= 1";
  if cfg.compact_every < 1 then
    invalid_arg "Daemon.create: compact_every must be >= 1";
  (* A client closing mid-reply must cost the daemon a Unix_error to
     catch, never a fatal SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stats =
    {
      served = 0;
      cache_hits = 0;
      shed = 0;
      crashed = 0;
      stalled = 0;
      client_errors = 0;
      drain_cancelled = 0;
      peak_in_flight = 0;
      replayed = 0;
      journal_appends = 0;
      compactions = 0;
      abandoned = [];
    }
  in
  let cache = Hashtbl.create 256 in
  let journal =
    match cfg.state_dir with
    | None -> None
    | Some dir ->
        let store, recovery = Journal.open_store ~dir in
        (* Warm the cache with every committed verdict that fits. *)
        List.iter
          (fun (digest, result) ->
            if cfg.cache_cap > 0 && Hashtbl.length cache < cfg.cache_cap then begin
              Hashtbl.replace cache digest result;
              stats.replayed <- stats.replayed + 1
            end)
          recovery.Journal.entries;
        Some store
  in
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.bind listen (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen 64;
  {
    cfg;
    listen;
    pool = Pool.create ~workers:cfg.workers;
    m = Mutex.create ();
    jobs = Hashtbl.create 64;
    next_ticket = 0;
    in_flight = 0;
    cache;
    journal;
    stats;
    drain = Atomic.make false;
  }

(* Signal-safe: the SIGTERM handler only flips an atomic the accept
   loop polls between selects. *)
let request_drain t = Atomic.set t.drain true

let draining t = Atomic.get t.drain

let log t fmt =
  if t.cfg.verbose then Fmt.epr ("cusand: " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter fmt

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_quietly fd j = try Protocol.write_frame fd j with Unix.Unix_error _ -> ()

let write_bytes_quietly fd line =
  try Protocol.write_frame_bytes fd line with Unix.Unix_error _ -> ()

(* Does a result carry a stall verdict? (soak: outcome="stalled";
   bench: stalled=true) *)
let result_stalled (j : Mjson.t) =
  (match Mjson.member "outcome" j |> Fun.flip Option.bind Mjson.to_str with
  | Some "stalled" -> true
  | _ -> false)
  || Mjson.member "stalled" j |> Fun.flip Option.bind Mjson.to_bool
     = Some true

(* --- the worker side ----------------------------------------------------- *)

(* Runs on a pool domain. Whatever happens — clean result, client
   mistake, wedge (already a verdict thanks to the watchdog), or an
   exception — the slot is recycled and at most one reply is written.
   An ok result is serialized once, outside the lock: the reply frame,
   the cache entry and the journal frame all carry those bytes. *)
let run_one t (ticket : int) (inf : inflight) ~cancelled =
  if cancelled () then ()
  else begin
    let t0 = Unix.gettimeofday () in
    let outcome =
      match Engine.run_job ~watchdog:t.cfg.watchdog inf.job with
      | Ok result -> `Ok result
      | Error msg -> `Client_error msg
      | exception e -> `Crash (e, Printexc.get_backtrace ())
    in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    let outcome =
      match outcome with
      | `Ok result ->
          let text = Mjson.to_string result in
          `Ok
            ( text,
              result_stalled result,
              Protocol.ok_frame ~job:inf.digest ~elapsed_s text )
      | (`Client_error _ | `Crash _) as o -> o
    in
    Mutex.lock t.m;
    let reply =
      match outcome with
      | `Ok (result, stalled, frame) ->
          t.stats.served <- t.stats.served + 1;
          if stalled then t.stats.stalled <- t.stats.stalled + 1;
          if
            t.cfg.cache_cap > 0
            && Hashtbl.length t.cache < t.cfg.cache_cap
            && not (Hashtbl.mem t.cache inf.digest)
          then begin
            Hashtbl.add t.cache inf.digest result;
            (* Write-through: the verdict is committed before the reply
               leaves, so a cache entry a client has seen can never be
               lost to a crash. A full disk costs durability of this
               one entry, never the reply or the worker. *)
            match t.journal with
            | None -> ()
            | Some j -> (
                try
                  Journal.append j ~digest:inf.digest result;
                  t.stats.journal_appends <- t.stats.journal_appends + 1
                with e ->
                  log t "journal append failed: %s" (Printexc.to_string e))
          end;
          frame
      | `Client_error msg ->
          t.stats.client_errors <- t.stats.client_errors + 1;
          Protocol.frame (Protocol.error_reply msg)
      | `Crash (e, bt) ->
          t.stats.crashed <- t.stats.crashed + 1;
          Protocol.frame
            (Protocol.crashed_reply ~job:inf.digest
               ~error:(Printexc.to_string e)
               ~backtrace:
                 (String.split_on_char '\n' bt
                 |> List.filter (fun l -> String.trim l <> "")))
    in
    let owns = not inf.replied in
    if owns then begin
      inf.replied <- true;
      Hashtbl.remove t.jobs ticket;
      t.in_flight <- t.in_flight - 1
    end;
    Mutex.unlock t.m;
    if owns then begin
      write_bytes_quietly inf.fd reply;
      close_quietly inf.fd
    end;
    (match outcome with
    | `Crash (e, _) ->
        log t "job %s reaped: %s (worker slot recycled)" inf.digest
          (Printexc.to_string e)
    | _ -> ())
  end

(* --- the accept-loop side ------------------------------------------------ *)

let health_json t =
  Mutex.lock t.m;
  let in_flight = t.in_flight in
  let cached = Hashtbl.length t.cache in
  Mutex.unlock t.m;
  Mjson.Obj
    [
      ("schema", Mjson.Str Protocol.schema);
      ("status", Mjson.Str "ok");
      ("role", Mjson.Str "cusand");
      ("in_flight", Mjson.Int in_flight);
      ("high_water", Mjson.Int t.cfg.queue_max);
      ("workers", Mjson.Int (Pool.size t.pool));
      ("cached", Mjson.Int cached);
      ("durable", Mjson.Bool (t.journal <> None));
      ("draining", Mjson.Bool (draining t));
    ]

let full_stats_json t =
  let journal_json =
    match t.journal with
    | None -> Mjson.Bool false
    | Some j ->
        Mjson.Obj
          [
            ("replayed", Mjson.Int (Journal.recovered_entries j));
            ("appends", Mjson.Int (Journal.appended_since_compact j));
            ( "torn_tail",
              match Journal.torn_tail j with
              | None -> Mjson.Null
              | Some why -> Mjson.Str why );
          ]
  in
  Mjson.Obj
    [
      ("schema", Mjson.Str Protocol.schema);
      ("status", Mjson.Str "ok");
      ("role", Mjson.Str "cusand");
      ("workers", Mjson.Int (Pool.size t.pool));
      ("high_water", Mjson.Int t.cfg.queue_max);
      ("journal", journal_json);
      ("stats", stats_json t.stats);
    ]

let submit t fd (job : Protocol.job) =
  let digest = Protocol.job_digest job in
  Mutex.lock t.m;
  match Hashtbl.find_opt t.cache digest with
  | Some result ->
      t.stats.served <- t.stats.served + 1;
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      Mutex.unlock t.m;
      write_bytes_quietly fd
        (Protocol.ok_frame ~cached:true ~job:digest ~elapsed_s:0. result);
      close_quietly fd;
      log t "cache hit %s (%s)" digest (Protocol.job_describe job)
  | None ->
      if t.in_flight >= t.cfg.queue_max then begin
        t.stats.shed <- t.stats.shed + 1;
        let in_flight = t.in_flight in
        Mutex.unlock t.m;
        (* Backoff hint scales with the overshoot past the high-water
           mark plus the work queued behind the running workers. *)
        let queue_len = max 0 (in_flight - Pool.size t.pool) in
        let retry_after =
          Protocol.retry_after_hint ~in_flight ~high_water:t.cfg.queue_max
            ~queue_len
        in
        write_quietly fd
          (Protocol.busy_reply ~retry_after ~in_flight
             ~high_water:t.cfg.queue_max);
        close_quietly fd;
        log t "shed %s (in-flight %d >= %d)" (Protocol.job_describe job)
          in_flight t.cfg.queue_max
      end
      else begin
        t.in_flight <- t.in_flight + 1;
        if t.in_flight > t.stats.peak_in_flight then
          t.stats.peak_in_flight <- t.in_flight;
        let ticket = t.next_ticket in
        t.next_ticket <- ticket + 1;
        let inf = { fd; job; digest; replied = false; handle = None } in
        Hashtbl.add t.jobs ticket inf;
        Mutex.unlock t.m;
        let h =
          Pool.submit_cancellable t.pool (fun ~cancelled ->
              run_one t ticket inf ~cancelled)
        in
        Mutex.lock t.m;
        inf.handle <- Some h;
        Mutex.unlock t.m;
        log t "admitted %s as %s" (Protocol.job_describe job) digest
      end

(* One connection, one frame, one reply. Nothing a peer sends — torn
   frame, oversized frame, hostile bytes, instant close — may raise out
   of here; a protocol failure costs an error reply, never the accept
   loop. *)
let handle_conn t fd =
  try
    (* A peer that connects and never sends must not wedge the accept
       loop: reads and writes on the conversation socket time out. *)
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.
     with Unix.Unix_error _ -> ());
    match Protocol.read_frame fd with
    | Error Protocol.Closed -> close_quietly fd
    | Error e ->
        Mutex.lock t.m;
        t.stats.client_errors <- t.stats.client_errors + 1;
        Mutex.unlock t.m;
        write_quietly fd (Protocol.error_reply (Protocol.read_error_to_string e));
        close_quietly fd
    | Ok line -> (
        match Protocol.parse_request line with
        | Error msg ->
            Mutex.lock t.m;
            t.stats.client_errors <- t.stats.client_errors + 1;
            Mutex.unlock t.m;
            write_quietly fd (Protocol.error_reply msg);
            close_quietly fd
        | Ok Protocol.Health ->
            write_quietly fd (health_json t);
            close_quietly fd
        | Ok Protocol.Stats ->
            write_quietly fd (full_stats_json t);
            close_quietly fd
        | Ok Protocol.Shutdown ->
            write_quietly fd
              (Mjson.Obj
                 [
                   ("schema", Mjson.Str Protocol.schema);
                   ("status", Mjson.Str "ok");
                   ("draining", Mjson.Bool true);
                 ]);
            close_quietly fd;
            request_drain t
        | Ok (Protocol.Submit job) ->
            if draining t then begin
              write_quietly fd (Protocol.error_reply "draining: admission closed");
              close_quietly fd
            end
            else submit t fd job)
  with e ->
    Mutex.lock t.m;
    t.stats.client_errors <- t.stats.client_errors + 1;
    Mutex.unlock t.m;
    log t "connection handler: %s" (Printexc.to_string e);
    close_quietly fd

(* Fold the committed cache into a fresh snapshot and truncate the
   journal. Holding the daemon lock excludes concurrent worker appends;
   the entry list is digest-sorted so snapshot bytes are deterministic
   for a given committed set. *)
let compact_locked t j =
  let entries =
    Hashtbl.fold (fun d r acc -> (d, r) :: acc) t.cache []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  try
    Journal.compact j ~entries;
    t.stats.compactions <- t.stats.compactions + 1
  with e -> log t "compaction failed: %s" (Printexc.to_string e)

let maybe_compact t =
  match t.journal with
  | Some j when Journal.appended_since_compact j >= t.cfg.compact_every ->
      Mutex.lock t.m;
      if Journal.appended_since_compact j >= t.cfg.compact_every then
        compact_locked t j;
      Mutex.unlock t.m
  | _ -> ()

(* Drain: admission is already closed (the listener goes down first);
   in-flight jobs get the wall-clock budget to finish, stragglers are
   cooperatively cancelled and their clients told. Thanks to the
   per-job watchdog the pool always quiesces, so the final shutdown
   join terminates. *)
let drain_now t =
  close_quietly t.listen;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  let deadline = Unix.gettimeofday () +. t.cfg.drain_timeout_s in
  let rec wait () =
    Mutex.lock t.m;
    let left = t.in_flight in
    Mutex.unlock t.m;
    if left > 0 && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  Mutex.lock t.m;
  let stragglers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.jobs []
    (* Ticket order, not hash order: abandoned jobs get their error
       replies (and the cancel calls) in a deterministic sequence. *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (ticket, inf) ->
      Option.iter Pool.cancel inf.handle;
      if not inf.replied then begin
        inf.replied <- true;
        Hashtbl.remove t.jobs ticket;
        t.in_flight <- t.in_flight - 1;
        t.stats.drain_cancelled <- t.stats.drain_cancelled + 1;
        t.stats.abandoned <-
          (inf.digest, Protocol.job_describe inf.job) :: t.stats.abandoned;
        write_quietly inf.fd
          (Protocol.error_reply "draining: job abandoned at drain deadline");
        close_quietly inf.fd
      end)
    stragglers;
  Mutex.unlock t.m;
  Pool.shutdown t.pool;
  (* Park the committed state in a fresh snapshot so the next boot
     replays from one clean file. A kill -9 skips this by definition —
     that path recovers from the journal instead. *)
  (match t.journal with
  | None -> ()
  | Some j ->
      Mutex.lock t.m;
      compact_locked t j;
      Mutex.unlock t.m;
      Journal.close j);
  t.stats

(* Serve until drain is requested (via {!request_drain}, a SIGTERM
   handler, or a shutdown frame), then drain and return the final
   stats. EINTR — the signal's footprint on a blocking select — is just
   another reason to re-check the drain flag. *)
let serve t =
  log t "listening on %s (%d workers, high-water %d, watchdog %d steps%s)"
    t.cfg.socket_path (Pool.size t.pool) t.cfg.queue_max t.cfg.watchdog
    (match t.cfg.state_dir with
    | None -> ""
    | Some d -> Printf.sprintf ", state %s" d);
  if t.stats.replayed > 0 then
    log t "recovered %d cached verdicts from the journal" t.stats.replayed;
  let rec loop () =
    if draining t then ()
    else begin
      maybe_compact t;
      match Unix.select [ t.listen ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
          (match Unix.accept t.listen with
          | fd, _ -> handle_conn t fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  log t "drain requested; closing admission";
  let stats = drain_now t in
  log t "drained (served %d, crashed %d, shed %d, abandoned %d)" stats.served
    stats.crashed stats.shed stats.drain_cancelled;
  stats
