(* The [cusand] workload: the built daemon as a client sees it. One
   client sends seeded jobs one connection at a time and waits for each
   reply (a closed loop with one outstanding request). Jobs repeat
   digests, so both the content-addressed cache and the miss path carry
   load; jobs are small, so daemon overhead sets the rate.

   The daemon runs with one worker and a fresh --state directory inside
   the checkout; it is shut down and the directory removed however the
   run ends. *)

module P = Server.Protocol
module J = Reporting.Mjson
open Common

let flavors = [ "vanilla"; "tsan"; "must"; "cusan"; "must-cusan" ]

(* The key space: 40% of jobs lint one of the 26 kirlint targets, 50%
   soak one of the 88 matrix cases under seeds 0-15, 10% run one of the
   3 apps x 5 flavors bench cells; 1449 distinct digests in all. *)
let soak_seeds = 16

let job_stream ~seed =
  let rng = Random.State.make [| seed |] in
  let lint = Array.of_list (Server.Engine.lint_target_ids ()) in
  let cases = Array.of_list (Server.Engine.soak_case_ids ()) in
  let apps = Array.of_list Server.Engine.bench_apps in
  let fls = Array.of_list flavors in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  fun () ->
    let r = Random.State.int rng 10 in
    if r < 4 then P.Lint { target = pick lint }
    else if r < 9 then
      P.Soak { case = pick cases; seed = Random.State.int rng soak_seeds; faults = None }
    else P.Bench { app = pick apps; flavor = pick fls }

(* Every digest once, in a fixed order: lint, bench, then soak seed by
   seed. Sent first, it fills the daemon's cache (1024 results by
   default) with the same results whatever the run's seed, and the
   journal takes its appends then. The measured window is then
   stationary and its misses are spread evenly over the cases: about 85%
   of jobs hit the cache, and with hits well past half the median
   latency sits inside the hit mode instead of between the modes. *)
let key_space () =
  List.map (fun target -> P.Lint { target }) (Server.Engine.lint_target_ids ())
  @ List.concat_map
      (fun app -> List.map (fun flavor -> P.Bench { app; flavor }) flavors)
      Server.Engine.bench_apps
  @ List.concat_map
      (fun seed ->
        List.map
          (fun case -> P.Soak { case; seed; faults = None })
          (Server.Engine.soak_case_ids ()))
      (List.init soak_seeds Fun.id)

(* The fields of a bench cell that do not depend on timing. *)
let bench_fields =
  [
    "kind"; "app"; "flavor"; "flavor_arg"; "rss_bytes"; "races"; "must_errors";
    "failures"; "stalled";
  ]

let stable job result =
  match job with
  | P.Bench _ ->
      let field k = (k, Option.value (J.member k result) ~default:J.Null) in
      J.to_string (J.Obj (List.map field bench_fields))
  | _ -> J.to_string result

(* The oracle. Every reply to a digest must equal the first reply to it
   byte for byte; after the run, each digest's reply must equal what the
   same engine computes in-process, independent of the daemon. *)
type oracle = { replies : (string, P.job * string * int ref) Hashtbl.t }

let oracle () = { replies = Hashtbl.create 4096 }

let observe o job result =
  let d = P.job_digest job in
  let got = stable job result in
  match Hashtbl.find_opt o.replies d with
  | Some (_, first, n) ->
      incr n;
      got = first
  | None ->
      Hashtbl.replace o.replies d (job, got, ref 1);
      true

(* Replies whose digest the in-process engine disagrees with. *)
let verify o =
  Hashtbl.fold
    (fun _ (job, got, n) bad ->
      match Server.Engine.run_job job with
      | Ok r when stable job r = got -> bad
      | _ -> bad + !n)
    o.replies 0

(* --- daemon lifecycle ---------------------------------------------------- *)

type daemon = { pid : int; dir : string; sock : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let request sock req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      P.write_frame fd (P.request_to_json req);
      match P.read_frame fd with
      | Ok line -> J.of_string line
      | Error e -> Error (P.read_error_to_string e))

let status reply = Option.bind (J.member "status" reply) J.to_str

let wait_healthy d ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match request d.sock P.Health with
    | Ok r when status r = Some "ok" -> ()
    | _ | (exception Unix.Unix_error _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "cusand exited during start-up");
        if now () > deadline then failwith "cusand did not become healthy";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let spawn ~exe ~work_dir =
  let rec fresh i =
    let dir = Filename.concat work_dir (Fmt.str "cusand-%d-%d" (Unix.getpid ()) i) in
    if Sys.file_exists dir then fresh (i + 1) else dir
  in
  let dir = fresh 0 in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "sock" in
  let out =
    Unix.openfile (Filename.concat dir "daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process exe
          [|
            exe; "--workers"; "1"; "--state"; Filename.concat dir "state"; "--socket"; sock;
          |]
          Unix.stdin out out)
  in
  { pid; dir; sock }

(* Stop the daemon (graceful drain, then SIGKILL after a grace period),
   reap it, and remove its directory. Never raises. *)
let stop d =
  (try ignore (request d.sock P.Shutdown) with _ -> ());
  let deadline = now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  try rm_rf d.dir with _ -> ()

let with_daemon ~exe ~work_dir f =
  let d = spawn ~exe ~work_dir in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

(* Set-up: spawn to first healthy reply. *)
let setup_once ~exe ~work_dir =
  let t0 = now () in
  with_daemon ~exe ~work_dir (fun d ->
      wait_healthy d ~timeout:60.;
      now () -. t0)

(* --- the client loop ----------------------------------------------------- *)

type reply = { ok : bool; t0 : float; latency : float; elapsed : float; cached : bool }

let submit d o job =
  let t0 = now () in
  let r =
    try request d.sock (P.Submit job)
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let latency = now () -. t0 in
  match r with
  | Error _ -> { ok = false; t0; latency; elapsed = 0.; cached = false }
  | Ok reply ->
      let field k f = Option.bind (J.member k reply) f in
      let ok =
        status reply = Some "ok"
        && match J.member "result" reply with Some res -> observe o job res | None -> false
      in
      {
        ok;
        t0;
        latency;
        elapsed = Option.value (field "elapsed_s" J.to_float) ~default:0.;
        cached = field "cached" J.to_bool = Some true;
      }

let daemon_stats d =
  match request d.sock P.Stats with
  | Ok r -> Option.value (J.member "stats" r) ~default:J.Null
  | Error _ -> J.Null

let stat_int stats k =
  float (Option.value (Option.bind (J.member k stats) J.to_int) ~default:0)

(* Send jobs one at a time while [more ()]. *)
let drive d o next ~sent ~more on_reply =
  while more () do
    incr sent;
    on_reply (submit d o (next ()))
  done

(* The warm-up: the whole key space (its first 100 jobs in a smoke
   run). *)
let prime d o ~smoke ~sent on_reply =
  let jobs = ref (key_space ()) in
  let next () =
    match !jobs with
    | j :: rest ->
        jobs := rest;
        j
    | [] -> invalid_arg "prime: key space exhausted"
  in
  drive d o next ~sent ~more:(fun () -> !jobs <> [] && not (smoke && !sent >= 100)) on_reply

let until ~smoke ~sent t () = now () < t && not (smoke && !sent >= 200)

let measure ~exe ~work_dir ~smoke ~seed ~seconds =
  let next = job_stream ~seed and o = oracle () in
  let units, bad, m, rss =
    with_daemon ~exe ~work_dir (fun d ->
        wait_healthy d ~timeout:60.;
        let sent = ref 0 and bad = ref 0 in
        let tally r = if not r.ok then incr bad in
        prime d o ~smoke ~sent tally;
        let m = meter () in
        drive d o next ~sent ~more:(until ~smoke ~sent (m.t_start +. seconds)) (fun r ->
            tally r;
            record m ~t0:r.t0 ~t1:(r.t0 +. r.latency) ~units:1);
        (!sent, !bad, m, peak_rss_mb (string_of_int d.pid)))
  in
  measured ~rss_mb:rss (units, bad + verify o, m)

let profile ~exe ~work_dir ~smoke ~seed ~seconds =
  let next = job_stream ~seed and o = oracle () in
  let p =
    with_daemon ~exe ~work_dir (fun d ->
        wait_healthy d ~timeout:60.;
        let sent = ref 0 and bad = ref 0 in
        let tally r = if not r.ok then incr bad in
        prime d o ~smoke ~sent tally;
        let untraced = ref [] and traced = ref [] in
        let engine = ref 0. and overhead = ref 0. and hits = ref 0 and oks = ref 0 in
        let s0 = daemon_stats d in
        (* alternate jobs between the plain and the envelope-reading
           client, so both see the same daemon state *)
        drive d o next ~sent ~more:(until ~smoke ~sent (now () +. seconds)) (fun r ->
            tally r;
            if !sent mod 2 = 0 then untraced := r.latency :: !untraced
            else begin
              traced := r.latency :: !traced;
              engine := !engine +. r.elapsed;
              overhead := !overhead +. (r.latency -. r.elapsed);
              if r.ok then incr oks;
              if r.cached then incr hits
            end);
        let s1 = daemon_stats d in
        let n = float (max 1 (List.length !traced)) in
        let delta k = (stat_int s1 k -. stat_int s0 k) /. n in
        let med = Stats.median !traced in
        {
          p_attempted = !sent;
          p_failed = !bad;
          values =
            [
              ("server.engine_ms", !engine /. n *. 1e3);
              ("server.overhead_ms", !overhead /. n *. 1e3);
              ("server.cache_hit_ratio", float !hits /. float (max 1 !oks));
              ("server.journal_appends", delta "journal_appends");
              ("server.compactions", delta "compactions");
              ("server.shed", delta "shed");
              ("trace.wall_s", med);
              ( "trace.overhead_pct",
                overhead_pct ~traced:med ~untraced:(Stats.median !untraced) );
            ];
          spans = [];
          p_notes = [ Fmt.str "%d jobs traced" (List.length !traced) ];
        })
  in
  { p with p_failed = p.p_failed + verify o }
