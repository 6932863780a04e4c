(* Outside-in profiler. Nothing inside lib/ is instrumented for it
   ([Trace.Recorder] stays off): every span comes from a public entry
   point the benchmark wraps around one harness run —

   - the scheduler [picker] (FIFO-equivalent: always the first
     candidate) marks every task switch;
   - a device hook, added from the wrapped app so it fires before
     CuSan's, brackets each CUDA call (Pre to Post);
   - the wrapped [env.compile] brackets the CuSan compile pass, and
     the kernel it returns brackets each kernel body;
   - the PMPI [mpi_observer] brackets each MPI call;
   - the [access_observer] counts checked ranges;
   - [Harness.Run.run] entry and exit bound the run.

   Time is attributed exclusively: at every span edge the clock delta
   since the previous edge goes to the innermost open span of the task
   that was running, so a blocking MPI call only accrues the caller's
   active time and the layers plus [host.other] sum to the traced wall
   time by construction. Device-op body time ([Device.timing]) that
   elapses inside another span (memcpy and memset bodies) moves to
   [cudasim.exec] as well; minor-heap words move with their span. Spans
   are kept in memory (capped) for a Chrome trace. *)

module D = Cudasim.Device

let host = "host.other"

type frame = { layer : string; start : float }

type t = {
  mutable nranks : int;
  mutable active : int;  (* running scheduler task; -1 outside tasks *)
  stacks : (int, frame list) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable last : float;
  mutable last_minor : float;
  mutable last_exec : float;
  mutable pending : float;
      (* kernel-body time already charged to [cudasim.exec] that
         [Device.timing] reports only once the op returns *)
  mutable devices : D.t list;
  self_s : (string, float) Hashtbl.t;
  alloc_w : (string, float) Hashtbl.t;
  mutable resumes : int;
  mutable runnable : int;
  mutable ranges : int;
  mutable range_bytes : int;
  mutable mpi_calls : int;
  mutable api_calls : int;
  origin : float;
  mutable events : Trace.Event.t list;
  mutable kept : int;
  cap : int;
  (* what the harness results of the traced runs report *)
  mutable walls : float list;
  gc : Common.gc ref;
  mutable virt : float;
  tsan : Tsan.Counters.t;
}

let create ?(cap = 20_000) () =
  let now = Common.now () in
  {
    nranks = 0;
    active = -1;
    stacks = Hashtbl.create 8;
    names = Hashtbl.create 8;
    last = now;
    last_minor = Gc.minor_words ();
    last_exec = 0.;
    pending = 0.;
    devices = [];
    self_s = Hashtbl.create 16;
    alloc_w = Hashtbl.create 16;
    resumes = 0;
    runnable = 0;
    ranges = 0;
    range_bytes = 0;
    mpi_calls = 0;
    api_calls = 0;
    origin = now;
    events = [];
    kept = 0;
    cap;
    walls = [];
    gc = ref Common.gc_zero;
    virt = 0.;
    tsan = Tsan.Counters.create ();
  }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

let exec_total t =
  List.fold_left (fun acc d -> acc +. fst (D.timing d)) 0. t.devices

let stack t = Option.value (Hashtbl.find_opt t.stacks t.active) ~default:[]
let top t = match stack t with f :: _ -> f.layer | [] -> host

(* Close the interval since the previous edge. *)
let tick t =
  let now = Common.now () in
  let minor = Gc.minor_words () in
  let exec = exec_total t in
  let dt = now -. t.last and dw = minor -. t.last_minor in
  let dexec = exec -. t.last_exec in
  let layer = top t in
  if layer = "cudasim.exec" then begin
    add t.self_s layer dt;
    t.pending <- t.pending +. dt
  end
  else begin
    let seen = Float.min t.pending dexec in
    t.pending <- t.pending -. seen;
    add t.self_s "cudasim.exec" (dexec -. seen);
    add t.self_s layer (dt -. (dexec -. seen))
  end;
  add t.alloc_w layer dw;
  t.last <- now;
  t.last_minor <- minor;
  t.last_exec <- exec;
  now

let push t layer =
  let now = tick t in
  Hashtbl.replace t.stacks t.active ({ layer; start = now } :: stack t)

let emit t f ~stop =
  if t.kept < t.cap then begin
    t.kept <- t.kept + 1;
    let track =
      Option.value (Hashtbl.find_opt t.names t.active) ~default:"harness"
    in
    t.events <-
      {
        Trace.Event.seq = t.kept;
        epoch = 0;
        ts_us = (f.start -. t.origin) *. 1e6;
        vt_us = 0.;
        pid = (if t.active >= 0 && t.active < t.nranks then t.active else -1);
        track;
        phase = Trace.Event.Complete ((stop -. f.start) *. 1e6);
        cat = "perfbench";
        name = f.layer;
        args = [];
      }
      :: t.events
  end

(* Pop up to and including the innermost [layer] frame; frames above it
   (a call that raised between Pre and Post) close with it. *)
let pop t layer =
  let now = tick t in
  let rec go = function
    | [] -> []
    | f :: rest ->
        emit t f ~stop:now;
        if f.layer = layer then rest else go rest
  in
  let s = stack t in
  if List.exists (fun f -> f.layer = layer) s then
    Hashtbl.replace t.stacks t.active (go s)

let picker t ~step:_ (cands : Sched.Scheduler.candidate array) =
  let c = cands.(0) in
  ignore (tick t);
  t.resumes <- t.resumes + 1;
  t.runnable <- t.runnable + Array.length cands;
  t.active <- c.Sched.Scheduler.c_id;
  if not (Hashtbl.mem t.names t.active) then begin
    Hashtbl.replace t.names t.active c.Sched.Scheduler.c_name;
    (* a rank's own start-up (detector, device, tool attach) is harness
       work until the wrapped app takes over *)
    if t.active < t.nranks then
      Hashtbl.replace t.stacks t.active [ { layer = "harness.setup"; start = t.last } ]
  end;
  0

let mpi_observer t ~rank:_ phase _call =
  match phase with
  | Mpisim.Hooks.Pre ->
      t.mpi_calls <- t.mpi_calls + 1;
      push t "mpisim.call"
  | Mpisim.Hooks.Post -> pop t "mpisim.call"

let access_observer t ~kind:_ ~addr:_ ~len =
  t.ranges <- t.ranges + 1;
  t.range_bytes <- t.range_bytes + len

let wrap t (app : Harness.Run.app) (env : Harness.Run.env) =
  pop t "harness.setup";
  t.devices <- env.Harness.Run.dev :: t.devices;
  D.add_hook env.Harness.Run.dev (fun phase _ ->
      match phase with
      | D.Pre ->
          t.api_calls <- t.api_calls + 1;
          push t "cusan.annotate"
      | D.Post -> pop t "cusan.annotate");
  let compile k =
    push t "cusan.pass";
    let k = env.Harness.Run.compile k in
    pop t "cusan.pass";
    let body ~grid args =
      push t "cudasim.exec";
      Fun.protect
        ~finally:(fun () -> pop t "cudasim.exec")
        (fun () -> Cudasim.Kernel.execute k ~grid args)
    in
    { k with Cudasim.Kernel.native = Some body }
  in
  app { env with Harness.Run.compile };
  push t "harness.teardown"

(* One traced harness run; [t] accumulates across calls. *)
let run t ~nranks ?check_types ~flavor app =
  t.nranks <- nranks;
  t.active <- -1;
  Hashtbl.reset t.stacks;
  Hashtbl.reset t.names;
  t.devices <- [];
  (* the bench's own loop between runs belongs to no layer *)
  t.last_exec <- 0.;
  t.pending <- 0.;
  t.last_minor <- Gc.minor_words ();
  let t0 = Common.now () in
  t.last <- t0;
  Hashtbl.replace t.stacks (-1) [ { layer = "harness.setup"; start = t0 } ];
  let res =
    Common.with_gc t.gc (fun () ->
        Harness.Run.run ~nranks ?check_types ~picker:(picker t)
          ~mpi_observer:(mpi_observer t) ~access_observer:(access_observer t)
          ~flavor (wrap t app))
  in
  ignore (tick t);
  t.walls <- (t.last -. t0) :: t.walls;
  t.virt <- t.virt +. res.Harness.Run.device_virtual_s;
  Tsan.Counters.add ~into:t.tsan res.Harness.Run.tsan_counters;
  res

let traced_wall t = Stats.median t.walls

let chrome_events t = List.rev t.events

(* The span layers, by the metric each one's self time reports. *)
let span_metrics =
  [
    ("cudasim.exec", "cudasim.exec_s");
    ("cusan.annotate", "cusan.annotate_s");
    ("mpisim.call", "mpisim.call_s");
    ("harness.setup", "harness.setup_s");
    ("harness.teardown", "harness.teardown_s");
    ("cusan.pass", "cusan.pass_s");
  ]

(* Per-run layer values over the traced runs, and whether the
   accounting closes: [host.other_s] is the traced wall time minus every
   disjoint span, must be non-negative, and must equal the time the
   recorder itself left outside all spans. *)
let values t =
  let runs = float (List.length t.walls) in
  let wall_s = List.fold_left ( +. ) 0. t.walls in
  let spans = List.fold_left (fun acc (l, _) -> acc +. get t.self_s l) 0. span_metrics in
  let other = wall_s -. spans in
  let known = host :: List.map fst span_metrics in
  let stray = Hashtbl.fold (fun l _ acc -> acc || not (List.mem l known)) t.self_s false in
  let ok =
    (not stray) && other >= 0.
    && Float.abs (other -. get t.self_s host) <= (1e-9 *. wall_s) +. 1e-9
  in
  let per x = x /. runs in
  ( List.map (fun (l, m) -> (m, per (get t.self_s l))) span_metrics
    @ [
        ("host.other_s", per other);
        ("cudasim.alloc_mw", per (get t.alloc_w "cudasim.exec" /. 1e6));
        ("cusan.annotate_alloc_mw", per (get t.alloc_w "cusan.annotate" /. 1e6));
        ("cudasim.api_calls", per (float t.api_calls));
        ("cudasim.virtual_s", per t.virt);
        ("mpisim.calls", per (float t.mpi_calls));
        ("sched.resumes", per (float t.resumes));
        ( "sched.runnable_mean",
          if t.resumes = 0 then 0. else float t.runnable /. float t.resumes );
        ("tsan.ranges", per (float t.ranges));
        ("tsan.range_mb", per (float t.range_bytes /. 1048576.));
        ("trace.wall_s", traced_wall t);
      ]
    @ Common.gc_values ~per:runs !(t.gc)
    @ Common.tsan_values ~per:runs t.tsan,
    ok )
