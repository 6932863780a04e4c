(* The simulated CUDA device: streams as FIFO queues of operations over
   a dependency DAG, CUDA events, and the legacy default-stream
   semantics of Fig. 3 in the paper.

   Execution modes:
   - [Eager]: every operation executes at enqueue time. Data is always
     fresh; missing synchronization is only visible to the race
     detector — like running a racy program that happens to win its
     races.
   - [Deferred]: operations execute when something forces them (a
     synchronization call, a blocking memory operation, or device
     progress ticks from [stream_query]). Reading a buffer without
     proper synchronization then really observes stale data, so races
     have observable consequences.

   Dependency edges encode device-side ordering:
   - each op depends on its stream predecessor (FIFO),
   - an op on the legacy default stream depends on the tails of all
     blocking user streams (it waits for them),
   - an op on a blocking user stream depends on the last default-stream
     op (the logical barrier of Fig. 3),
   - non-blocking streams take part in neither legacy edge,
   - cudaStreamWaitEvent adds an edge to the event's marker op. *)

type flags = Blocking | Non_blocking

type stream = {
  sid : int;
  flags : flags;
  is_default : bool;
  mutable tail : op option;
  mutable destroyed : bool;
  mutable wedged : string option;
      (* injected device wedge: ops behind this stream never complete;
         the string names the fault origin for diagnostics *)
}

and op = {
  oid : int;
  label : string;
  op_stream : stream;
  deps : op list;
  action : unit -> unit;
  mutable executed : bool;
  mutable finished_at : float; (* virtual device time at completion *)
}

type event = { eid : int; mutable recorded : op option }

type mode = Eager | Deferred

(* Default-stream semantics (paper, Section VI-B): [Legacy] is the
   classic blocking default stream of Fig. 3; [Per_thread] gives each
   host thread its own default stream with no legacy barriers
   (nvcc --default-stream per-thread). *)
type default_mode = Legacy | Per_thread

type phase = Pre | Post

type api_event =
  | Stream_create of stream
  | Stream_destroy of stream
  | Kernel_launch of {
      kernel : Kernel.t;
      grid : int;
      args : Kir.Interp.value array;
      stream : stream;
    }
  | Memcpy of {
      dst : Memsim.Ptr.t;
      src : Memsim.Ptr.t;
      bytes : int;
      async : bool;
      stream : stream;
      blocking : bool; (* does the call really block the host? *)
      modeled_sync : bool; (* does CuSan's model treat it as a sync point? *)
    }
  | Memset of {
      dst : Memsim.Ptr.t;
      bytes : int;
      value : int;
      async : bool;
      stream : stream;
      blocking : bool;
      modeled_sync : bool;
    }
  | Device_sync
  | Stream_sync of stream
  | Stream_query of stream * bool
  | Event_record of { event : event; stream : stream }
  | Event_sync of event
  | Event_query of event * bool
  | Stream_wait_event of { stream : stream; event : event }
  | Malloc of { ptr : Memsim.Ptr.t; space : Memsim.Space.t; bytes : int }
  | Free of { ptr : Memsim.Ptr.t; async : bool; stream : stream option }
  | Host_func of { stream : stream; label : string }

type t = {
  mode : mode;
  default_stream_mode : default_mode;
  default : stream;
  ptds : (int, stream) Hashtbl.t; (* per-thread default streams *)
  mutable thread_key : int; (* current host thread, set by the harness *)
  mutable user_streams : stream list; (* reverse creation order *)
  mutable legacy_tail : op option; (* last op on the default stream *)
  mutable next_oid : int;
  mutable next_sid : int;
  mutable next_eid : int;
  pending : op Queue.t; (* enqueue order, for progress ticks *)
  mutable hooks : (phase -> api_event -> unit) list;
  mutable exec_wall_s : float; (* real CPU time spent running op bodies *)
  mutable virtual_s : float; (* modelled device time (Costmodel) *)
  (* Error state (see [Error]): [last_error] is the most recent
     non-sticky failure, cleared by [get_last_error]; [sticky] is a
     corrupted-context error every later call re-surfaces; deferred
     async errors queue up here until a sync point pops them. *)
  mutable last_error : Error.code;
  mutable sticky : Error.code option;
  async_errors : (Error.code * string) Queue.t;
}

exception Stream_destroyed

let create ?(mode = Eager) ?(default_stream_mode = Legacy) () =
  {
    mode;
    default_stream_mode;
    default =
      { sid = 0; flags = Blocking; is_default = true; tail = None;
        destroyed = false; wedged = None };
    ptds = Hashtbl.create 4;
    thread_key = 0;
    user_streams = [];
    legacy_tail = None;
    next_oid = 0;
    next_sid = 1;
    next_eid = 0;
    pending = Queue.create ();
    hooks = [];
    exec_wall_s = 0.;
    virtual_s = 0.;
    last_error = Error.Success;
    sticky = None;
    async_errors = Queue.create ();
  }

let add_hook t f = t.hooks <- f :: t.hooks

(* Flight-recorder rendering of an API event: CUDA call name plus the
   arguments worth seeing in a trace. *)
let trace_label = function
  | Stream_create s -> ("cudaStreamCreate", [ ("sid", string_of_int s.sid) ])
  | Stream_destroy s -> ("cudaStreamDestroy", [ ("sid", string_of_int s.sid) ])
  | Kernel_launch { kernel; grid; stream; _ } ->
      ( "cudaLaunchKernel",
        [
          ("kernel", kernel.Kernel.kname);
          ("grid", string_of_int grid);
          ("sid", string_of_int stream.sid);
        ] )
  | Memcpy { bytes; async; stream; _ } ->
      ( (if async then "cudaMemcpyAsync" else "cudaMemcpy"),
        [ ("bytes", string_of_int bytes); ("sid", string_of_int stream.sid) ] )
  | Memset { bytes; async; stream; _ } ->
      ( (if async then "cudaMemsetAsync" else "cudaMemset"),
        [ ("bytes", string_of_int bytes); ("sid", string_of_int stream.sid) ] )
  | Device_sync -> ("cudaDeviceSynchronize", [])
  | Stream_sync s -> ("cudaStreamSynchronize", [ ("sid", string_of_int s.sid) ])
  | Stream_query (s, _) -> ("cudaStreamQuery", [ ("sid", string_of_int s.sid) ])
  | Event_record { event; stream } ->
      ( "cudaEventRecord",
        [ ("eid", string_of_int event.eid); ("sid", string_of_int stream.sid) ]
      )
  | Event_sync e -> ("cudaEventSynchronize", [ ("eid", string_of_int e.eid) ])
  | Event_query (e, _) -> ("cudaEventQuery", [ ("eid", string_of_int e.eid) ])
  | Stream_wait_event { stream; event } ->
      ( "cudaStreamWaitEvent",
        [ ("sid", string_of_int stream.sid); ("eid", string_of_int event.eid) ]
      )
  | Malloc { bytes; space; _ } ->
      ( "cudaMalloc",
        [ ("bytes", string_of_int bytes); ("space", Memsim.Space.to_string space) ] )
  | Free { async; _ } -> ((if async then "cudaFreeAsync" else "cudaFree"), [])
  | Host_func { stream; label } ->
      ( "cudaLaunchHostFunc",
        [ ("label", label); ("sid", string_of_int stream.sid) ] )

let fire t phase ev =
  (if phase = Pre && Trace.Recorder.on () then
     let name, args = trace_label ev in
     Trace.Recorder.instant ~cat:"cuda" ~args name);
  List.iter (fun f -> f phase ev) t.hooks

(* --- error state ------------------------------------------------------- *)

let record_error t code =
  if Error.is_sticky code then (
    if t.sticky = None then t.sticky <- Some code)
  else t.last_error <- code

(* cudaGetLastError: returns and clears the last error — except sticky
   errors, which nothing clears. *)
let get_last_error t =
  match t.sticky with
  | Some c -> c
  | None ->
      let c = t.last_error in
      t.last_error <- Error.Success;
      c

let peek_at_last_error t =
  match t.sticky with Some c -> c | None -> t.last_error

(* Queue a deferred asynchronous error from device-side work; it
   surfaces at the next synchronization point, as on real hardware. *)
let post_async_error t code ctx = Queue.push (code, ctx) t.async_errors

(* Pop pending async errors at a sync point: record and raise the first
   one. Also re-surfaces a sticky error on every call, modelling a
   corrupted context. No-op on a healthy device. *)
let surface t ctx =
  if not (Queue.is_empty t.async_errors) then begin
    let code, origin = Queue.pop t.async_errors in
    record_error t code;
    Error.fail code (Fmt.str "%s: deferred error from %s" ctx origin)
  end;
  match t.sticky with
  | Some c -> Error.fail c (Fmt.str "%s: context corrupted" ctx)
  | None -> ()

let mode t = t.mode
let default_mode t = t.default_stream_mode

(* The harness sets this when the scheduler resumes a different host
   thread, so per-thread default streams resolve correctly. *)
let set_thread_key t k = t.thread_key <- k

let default_stream t =
  match t.default_stream_mode with
  | Legacy -> t.default
  | Per_thread -> (
      match Hashtbl.find_opt t.ptds t.thread_key with
      | Some s -> s
      | None ->
          (* A per-thread default stream never takes part in the legacy
             barrier; model it as a non-blocking pseudo-default. *)
          let s =
            {
              sid = t.next_sid;
              flags = Non_blocking;
              is_default = true;
              tail = None;
              destroyed = false;
              wedged = None;
            }
          in
          t.next_sid <- t.next_sid + 1;
          Hashtbl.replace t.ptds t.thread_key s;
          fire t Pre (Stream_create s);
          fire t Post (Stream_create s);
          s)

let streams t =
  (* Sorted by stream id, not hash order: callers fold this into
     reports and sync sweeps, which must not vary between runs that
     created the same streams in a different schedule. *)
  let ptds =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.ptds []
    |> List.sort (fun a b -> compare a.sid b.sid)
  in
  (t.default :: ptds) @ List.rev t.user_streams

(* --- op DAG ----------------------------------------------------------- *)

exception Wedged of string
(* Raised when forcing work that sits behind a wedged stream — directly
   or through a dependency edge. Internal control flow: sync points
   convert it into a sticky [Launch_timeout] via [surface_wedge];
   asynchronous paths (eager enqueue, progress ticks) swallow it, since
   on real hardware a wedged stream fails nothing until you wait on it. *)

let wedge_stream (s : stream) ~origin =
  if s.wedged = None then s.wedged <- Some origin

let rec force op =
  if not op.executed then begin
    (match op.op_stream.wedged with
    | Some origin -> raise (Wedged origin)
    | None -> ());
    List.iter force op.deps;
    op.executed <- true;
    op.action ()
  end

(* Run [f] (a forcing computation) at a synchronization point: waiting
   on wedged work surfaces as the sticky [Launch_timeout] a hung device
   eventually produces, corrupting the context — every later call then
   re-surfaces it. *)
let surface_wedge t api f =
  try f ()
  with Wedged origin ->
    record_error t Error.Launch_timeout;
    Error.fail Error.Launch_timeout
      (Fmt.str
         "%s: stream wedged by injected fault (%s); queued device work will \
          never complete"
         api origin)

let force_all_of t =
  List.iter
    (fun s -> match s.tail with Some op -> force op | None -> ())
    (streams t);
  match t.legacy_tail with Some op -> force op | None -> ()

let enqueue t ?(extra_deps = []) ?(cost = 0.) stream label action =
  if stream.destroyed then raise Stream_destroyed;
  (* A corrupted context rejects all new work with the sticky error. *)
  (match t.sticky with
  | Some c -> Error.fail c (Fmt.str "%s: context corrupted" label)
  | None -> ());
  let tails_of l =
    List.filter_map (fun (s : stream) -> s.tail) l
  in
  let legacy_deps =
    if t.default_stream_mode = Per_thread then []
      (* per-thread default streams have no blocking barriers *)
    else if stream.is_default then
      (* Default-stream ops wait for all prior work on blocking streams. *)
      tails_of (List.filter (fun s -> s.flags = Blocking) t.user_streams)
    else if stream.flags = Blocking then
      (* Blocking user streams wait for prior default-stream work. *)
      match t.legacy_tail with Some op -> [ op ] | None -> []
    else []
  in
  let deps =
    (match stream.tail with Some op -> [ op ] | None -> [])
    @ legacy_deps @ extra_deps
  in
  let rec op =
    {
      oid = t.next_oid;
      label;
      op_stream = stream;
      deps;
      executed = false;
      finished_at = 0.;
      action =
        (fun () ->
          let traced = Trace.Recorder.on () in
          let ts0 = if traced then Trace.Recorder.now_us () else 0. in
          let t0 = Unix.gettimeofday () in
          action ();
          t.exec_wall_s <- t.exec_wall_s +. (Unix.gettimeofday () -. t0);
          t.virtual_s <- t.virtual_s +. cost;
          op.finished_at <- t.virtual_s;
          if traced then begin
            (* Device ops become Complete slices whose duration is the
               modelled device time, so the trace shows the cost model's
               view of the GPU timeline. *)
            Trace.Recorder.add_vt cost;
            Trace.Recorder.complete ~cat:"cuda.op" ~start_us:ts0
              ~dur_us:(cost *. 1e6)
              ~args:[ ("sid", string_of_int stream.sid) ]
              label
          end);
    }
  in
  t.next_oid <- t.next_oid + 1;
  stream.tail <- Some op;
  if stream.is_default && t.default_stream_mode = Legacy then
    t.legacy_tail <- Some op;
  Queue.push op t.pending;
  (* Eager execution stops at a wedged stream: the enqueue itself still
     succeeds (launches return cudaSuccess on a hung device), the work
     just never runs. *)
  if t.mode = Eager then (try force op with Wedged _ -> ());
  op

(* One unit of asynchronous device progress: execute the oldest pending
   operation. Deferred mode uses this to make cudaStreamQuery busy-wait
   loops terminate, modelling a device that advances behind the host's
   back. *)
let tick t =
  let rec go () =
    if Queue.is_empty t.pending then false
    else
      let op = Queue.pop t.pending in
      if op.executed then go ()
      else
        match force op with
        | () -> true
        | exception Wedged _ ->
            (* Wedged work makes no progress; try the next pending op. *)
            go ()
  in
  go ()

(* --- streams ----------------------------------------------------------- *)

let stream_create ?(flags = Blocking) t =
  let s =
    { sid = t.next_sid; flags; is_default = false; tail = None;
      destroyed = false; wedged = None }
  in
  t.next_sid <- t.next_sid + 1;
  t.user_streams <- s :: t.user_streams;
  fire t Pre (Stream_create s);
  fire t Post (Stream_create s);
  s

let stream_synchronize t s =
  fire t Pre (Stream_sync s);
  surface_wedge t "cudaStreamSynchronize" (fun () ->
      match s.tail with Some op -> force op | None -> ());
  fire t Post (Stream_sync s);
  surface t "cudaStreamSynchronize"

let stream_destroy t s =
  if s.is_default then invalid_arg "cannot destroy the default stream";
  fire t Pre (Stream_destroy s);
  surface_wedge t "cudaStreamDestroy" (fun () ->
      match s.tail with Some op -> force op | None -> ());
  s.destroyed <- true;
  t.user_streams <- List.filter (fun s' -> s'.sid <> s.sid) t.user_streams;
  fire t Post (Stream_destroy s)

let stream_query t s =
  fire t Pre (Stream_query (s, false));
  if t.mode = Deferred then ignore (tick t);
  let completed = match s.tail with None -> true | Some op -> op.executed in
  fire t Post (Stream_query (s, completed));
  surface t "cudaStreamQuery";
  completed

let device_synchronize t =
  fire t Pre Device_sync;
  surface_wedge t "cudaDeviceSynchronize" (fun () -> force_all_of t);
  fire t Post Device_sync;
  surface t "cudaDeviceSynchronize"

(* --- events ------------------------------------------------------------ *)

let event_create t =
  let e = { eid = t.next_eid; recorded = None } in
  t.next_eid <- t.next_eid + 1;
  e

let event_record t e s =
  fire t Pre (Event_record { event = e; stream = s });
  let marker = enqueue t s (Fmt.str "event#%d" e.eid) (fun () -> ()) in
  e.recorded <- Some marker;
  fire t Post (Event_record { event = e; stream = s })

let event_synchronize t e =
  fire t Pre (Event_sync e);
  surface_wedge t "cudaEventSynchronize" (fun () ->
      match e.recorded with Some op -> force op | None -> ());
  fire t Post (Event_sync e);
  surface t "cudaEventSynchronize"

let event_query t e =
  fire t Pre (Event_query (e, false));
  if t.mode = Deferred then ignore (tick t);
  let completed = match e.recorded with None -> true | Some op -> op.executed in
  fire t Post (Event_query (e, completed));
  surface t "cudaEventQuery";
  completed

(* cudaEventElapsedTime: virtual milliseconds between the completion of
   two recorded events. Forces both, like querying timing on real CUDA
   requires the events to have completed. *)
let event_elapsed_time t e1 e2 =
  let finish e =
    match e.recorded with
    | Some op ->
        surface_wedge t "cudaEventElapsedTime" (fun () -> force op);
        op.finished_at
    | None -> invalid_arg "event_elapsed_time: event never recorded"
  in
  let t1 = finish e1 in
  let t2 = finish e2 in
  (t2 -. t1) *. 1000.

(* cudaLaunchHostFunc: run a host callback as a stream operation — it
   executes after all preceding work on the stream and blocks subsequent
   stream work until it returns. *)
let launch_host_func t s ?(label = "hostFunc") f =
  fire t Pre (Host_func { stream = s; label });
  ignore (enqueue t s label f);
  fire t Post (Host_func { stream = s; label })

let stream_wait_event t s e =
  fire t Pre (Stream_wait_event { stream = s; event = e });
  let extra_deps = match e.recorded with Some op -> [ op ] | None -> [] in
  ignore
    (enqueue t ~extra_deps s (Fmt.str "wait-event#%d" e.eid) (fun () -> ()));
  fire t Post (Stream_wait_event { stream = s; event = e })

(* --- kernel launch ----------------------------------------------------- *)

exception Invalid_launch of string

let launch t kernel ~grid ~(args : Kir.Interp.value array) ?stream () =
  let stream = match stream with Some s -> s | None -> default_stream t in
  if grid <= 0 then begin
    record_error t Error.Invalid_value;
    raise (Invalid_launch "grid must be positive")
  end;
  Array.iter
    (function
      | Kir.Interp.VPtr p
        when not (Memsim.Space.device_accessible (Memsim.Ptr.space p)) ->
          record_error t Error.Invalid_value;
          raise
            (Invalid_launch
               (Fmt.str "kernel %s given host pointer %a" kernel.Kernel.kname
                  Memsim.Ptr.pp p))
      | _ -> ())
    args;
  let injected = Faultsim.Injector.probe ~site:Faultsim.Site.Kernel_launch () in
  (match injected with
  | Some Faultsim.Plan.Abort ->
      Error.fail Error.Launch_failed
        (Fmt.str "injected abort launching kernel %s" kernel.Kernel.kname)
  | Some Faultsim.Plan.Hang -> Faultsim.Injector.hang ~site:Faultsim.Site.Kernel_launch ()
  | Some Faultsim.Plan.Crash ->
      Faultsim.Injector.crash ~site:Faultsim.Site.Kernel_launch ()
  | Some Faultsim.Plan.Wedge ->
      (* The stream behind this launch becomes permanently unresponsive;
         the launch call itself still returns cudaSuccess. *)
      wedge_stream stream
        ~origin:(Fmt.str "kernel_launch:%s" kernel.Kernel.kname)
  | Some (Faultsim.Plan.Fail | Faultsim.Plan.Drop | Faultsim.Plan.Delay _)
  | None -> ());
  fire t Pre (Kernel_launch { kernel; grid; args; stream });
  let body =
    match injected with
    | Some (Faultsim.Plan.Fail | Faultsim.Plan.Drop | Faultsim.Plan.Delay _) ->
        (* The launch itself "succeeds"; the fault is an asynchronous
           device-side failure that surfaces at the next sync point.
           Drop/delay have no kernel meaning and degrade to this. *)
        fun () ->
          post_async_error t Error.Launch_failed
            (Fmt.str "kernel:%s" kernel.Kernel.kname)
    | _ -> fun () -> Kernel.execute kernel ~grid args
  in
  ignore
    (enqueue t ~cost:(Costmodel.kernel ~grid) stream
       (Fmt.str "kernel:%s" kernel.Kernel.kname)
       body);
  fire t Post (Kernel_launch { kernel; grid; args; stream })

let timing t = (t.exec_wall_s, t.virtual_s)
