(* Runs an application under a tool configuration and collects the
   paper's measurements: wall time, resident memory at MPI_Finalize,
   race reports, MUST findings, and the Table I event counters.

   An application is a function over a per-rank environment holding the
   MPI context, the rank's CUDA device, and a [compile] hook standing in
   for building the binary with the CuSan compiler pass: it attaches the
   kernel access analysis when the flavor includes CuSan. *)

type env = {
  mpi : Mpisim.Mpi.ctx;
  dev : Cudasim.Device.t;
  compile : Cudasim.Kernel.t -> Cudasim.Kernel.t;
}

type app = env -> unit

type rank_state = {
  detector : Tsan.Detector.t option;
  device : Cudasim.Device.t;
  cusan : Cusan.Runtime.t option;
  must : Must.Runtime.t option;
  mutable rss : int; (* bytes, recorded at MPI_Finalize *)
}

(* Host-thread registry: maps scheduler task ids to the race-detector
   fiber and device representing that host thread. A scheduler resume
   hook retargets the detector's current fiber and the device's
   per-thread-default-stream key whenever the cooperative scheduler
   interleaves host threads. Domain-local, like the scheduler it
   mirrors: sharded runners keep independent registries. *)
let thread_registry_key :
    (int, Tsan.Detector.t option * Tsan.Detector.fiber option * Cudasim.Device.t)
    Hashtbl.t
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let thread_registry () = Domain.DLS.get thread_registry_key

let resume_hook _name id =
  match Hashtbl.find_opt (thread_registry ()) id with
  | Some (det, fiber, device) ->
      (match (det, fiber) with
      | Some d, Some f -> Tsan.Detector.activate_fiber d f
      | _ -> ());
      Cudasim.Device.set_thread_key device id
  | None -> ()

let join_key id = 0x4_0000_0000 + id

(* Run each function as an additional host thread of the calling rank
   and wait for all of them (spawn/join with the thread-creation and
   join synchronization semantics TSan gives pthreads). MPI and CUDA
   calls are legal inside — this is MPI_THREAD_MULTIPLE-style hybrid
   code, the "X" of MPI + X. *)
let parallel (env : env) fs =
  let rank = env.mpi.Mpisim.Mpi.rank in
  let parent_id = Sched.Scheduler.self_id () in
  let det, _, device =
    match Hashtbl.find_opt (thread_registry ()) parent_id with
    | Some entry -> entry
    | None -> (None, None, env.dev)
  in
  let remaining = ref (List.length fs) in
  let joined = Sched.Scheduler.cond (Fmt.str "rank%d:join" rank) in
  let child_ids = ref [] in
  List.iteri
    (fun i f ->
      (* The fiber is created in the parent, at spawn time: the child
         starts ordered after the parent's work so far — and not after
         whatever sibling happened to run last. *)
      let fiber =
        Option.map
          (fun d ->
            Tsan.Detector.fiber_create_inherit d
              (Fmt.str "host:thread%d" (i + 1)))
          det
      in
      Sched.Scheduler.spawn
        (Fmt.str "rank%d:thread%d" rank (i + 1))
        (fun () ->
          let id = Sched.Scheduler.self_id () in
          child_ids := id :: !child_ids;
          Hashtbl.replace (thread_registry ()) id (det, fiber, device);
          (match (det, fiber) with
          | Some d, Some fb -> Tsan.Detector.activate_fiber d fb
          | _ -> ());
          Cudasim.Device.set_thread_key device id;
          Fun.protect
            ~finally:(fun () ->
              (* pthread_join semantics: publish the thread's final state *)
              (match det with
              | Some d -> Tsan.Detector.happens_before d (join_key id)
              | None -> ());
              decr remaining;
              Sched.Scheduler.signal joined)
            f))
    fs;
  Sched.Scheduler.wait_until joined (fun () -> !remaining = 0);
  match det with
  | Some d -> List.iter (fun id -> Tsan.Detector.happens_after d (join_key id)) !child_ids
  | None -> ()

(* What a crashed rank leaves behind: where it died, what it was doing
   (flight-recorder tail), what it was still waiting for (pending
   requests), and which of its host threads never joined. The
   supervisor builds this at the crash site, before the rank's threads
   are reaped. *)
type post_mortem = {
  pm_rank : int;
  pm_site : string; (* the fault site whose [:crash] action fired *)
  pm_trace : string list; (* last flight-recorder events of the rank *)
  pm_pending : string list; (* pending (incomplete) requests at death *)
  pm_unjoined : string list; (* host threads of the rank never joined *)
}

let pp_post_mortem ppf pm =
  Fmt.pf ppf "rank %d killed at %s@," pm.pm_rank pm.pm_site;
  (match pm.pm_pending with
  | [] -> ()
  | reqs ->
      Fmt.pf ppf "  pending requests:@,";
      List.iter (fun r -> Fmt.pf ppf "    %s@," r) reqs);
  (match pm.pm_unjoined with
  | [] -> ()
  | ts ->
      Fmt.pf ppf "  unjoined host threads:@,";
      List.iter (fun t -> Fmt.pf ppf "    %s@," t) ts);
  match pm.pm_trace with
  | [] -> ()
  | lines ->
      Fmt.pf ppf "  last events:@,";
      List.iter (fun l -> Fmt.pf ppf "    %s@," l) lines

type result = {
  flavor : Flavor.t;
  nranks : int;
  wall_s : float; (* raw wall time of the whole (serialized) simulation *)
  proc_s : float;
      (* estimated per-process runtime with the paper's measurement
         semantics: host work (wall time minus the CPU cost of executing
         device-op bodies, an artifact of simulating the GPU on the
         host) plus the cost model's virtual device time, divided across
         ranks (real ranks run in parallel). *)
  device_exec_s : float; (* summed over ranks: real CPU time in op bodies *)
  device_virtual_s : float; (* summed over ranks: modelled device time *)
  rss_bytes : int; (* max over ranks *)
  races : (int * Tsan.Report.t) list; (* (rank, report) *)
  race_events : int;
  must_errors : Must.Errors.t list;
  tsan_counters : Tsan.Counters.t; (* rank 0, like Table I *)
  cuda_counters : Cusan.Counters.t; (* rank 0 *)
  tracked_read_bytes : int; (* summed over ranks, for Fig. 12 *)
  tracked_write_bytes : int;
  deadlock : (string * string) list option;
  failures : (int * string) list; (* (rank, what killed it), rank order *)
  post_mortems : post_mortem list; (* crashed ranks, in crash order *)
  stall : Sched.Scheduler.stall option; (* watchdog diagnostic *)
  fault_log : Faultsim.Injector.decision list; (* injected-fault replay log *)
  history : (string * string list) list;
      (* flight-recorder context for blocked tasks on deadlock/stall;
         [] unless a trace recorder was enabled during the run *)
  static_races : (string * Cudasim.Kernel.race_verdict * string) list;
      (* (kernel, verdict, description): intra-kernel races the static
         analysis attached at compile time, deduplicated across ranks;
         [] when the flavor does not run the CuSan pass *)
}

let has_races r = r.races <> []

let static_musts r =
  List.filter_map
    (fun (k, v, d) ->
      match v with
      | Cudasim.Kernel.Must_race | Cudasim.Kernel.Proved_race -> Some (k, d)
      | Cudasim.Kernel.May_race -> None)
    r.static_races

let has_static_musts r = static_musts r <> []

(* Human-readable cause for a captured rank failure, with the MPI error
   class / CUDA error name a real tool report would carry. *)
let describe_exn = function
  | Cudasim.Error.Cuda_failure { code; ctx } ->
      Fmt.str "%s: %s" (Cudasim.Error.to_string code) ctx
  | Mpisim.Mpi.Abort msg -> Fmt.str "MPI_Abort: %s" msg
  | Mpisim.Comm.Truncation msg -> Fmt.str "MPI_ERR_TRUNCATE: %s" msg
  | Mpisim.Comm.Invalid_rank r -> Fmt.str "MPI_ERR_RANK: invalid rank %d" r
  | Mpisim.Comm.Proc_failed r ->
      Fmt.str "MPI_ERR_PROC_FAILED: peer rank %d died" r
  | Mpisim.Comm.Revoked -> "MPI_ERR_REVOKED: communicator revoked"
  | Faultsim.Injector.Rank_killed { rank; site } ->
      Fmt.str "killed by injected crash at %s (rank %d)"
        (Faultsim.Site.to_string site) rank
  | Mpisim.Win.Target_out_of_bounds msg -> Fmt.str "MPI_ERR_RANGE: %s" msg
  | Mpisim.Win.Window_freed -> "MPI_ERR_WIN: operation on freed window"
  | Cudasim.Device.Invalid_launch msg ->
      Fmt.str "cudaErrorInvalidValue: invalid launch: %s" msg
  | Cudasim.Device.Stream_destroyed -> "use of destroyed CUDA stream"
  | e -> Printexc.to_string e

(* Memory model for the RSS measurement (a high-water mark, like real
   RSS): the rank's share of the peak simulated allocations, plus
   everything the tools added — *materialized* shadow memory (shadow only
   counts once an access touches it, like real TSan's lazily-faulted
   shadow pages), synchronization clocks, TypeART's table — plus a
   configurable constant standing in for the process baseline (CUDA
   driver + MPI library mappings) that dominates a real process's RSS.
   The default of 0 reports raw simulator numbers. *)
let rank_rss ~nranks ~baseline (st : rank_state) =
  let app_share = Memsim.Heap.peak_bytes () / nranks in
  let tool =
    match st.detector with
    | None -> 0
    | Some d -> Tsan.Detector.shadow_bytes_peak d + Tsan.Detector.sync_bytes d
  in
  let typeart =
    if Typeart.Rt.enabled () then
      let _, _, entries = Typeart.Rt.stats (Typeart.Rt.instance ()) in
      entries * 96
    else 0
  in
  baseline + app_share + tool + typeart

let run ?(nranks = 2) ?(mode = Cudasim.Device.Eager)
    ?(default_stream_mode = Cudasim.Device.Legacy) ?(suppressions = [])
    ?(check_types = false) ?(baseline_rss = 0) ?(granule = 8) ?annotation
    ?max_range_bytes ?watchdog ?picker ?access_observer ?mpi_observer ?faults
    ?(prove_static = false) ~flavor app =
  (* Fresh global state, as a fresh process would have. *)
  (match faults with
  | Some (seed, plan) -> Faultsim.Injector.arm ~seed ~plan ()
  | None -> Faultsim.Injector.disarm ());
  (* New flight-recorder epoch per run: recent-history queries (race
     reports, deadlock context) never see events of a previous case. *)
  if Trace.Recorder.on () then Trace.Recorder.new_epoch ();
  Memsim.Hooks.clear ();
  Mpisim.Hooks.clear ();
  Memsim.Heap.reset ();
  (* Id counters feed names that appear in reports (fiber "mpi:req3",
     "win#1"): resetting them per run makes every run's output
     self-contained — identical whether the case runs alone, mid-suite,
     or on a worker domain of the sharded runner. *)
  Mpisim.Request.reset_ids ();
  Mpisim.Win.reset_ids ();
  Must.Rma.reset_keys ();
  Typeart.Rt.reset ();
  Typeart.Rt.set_enabled (Flavor.uses_typeart flavor);
  Sched.Scheduler.clear_resume_hooks ();
  Hashtbl.reset (thread_registry ());
  Sched.Scheduler.on_resume resume_hook;
  (* Race reports resolve addresses to allocations of the simulated
     heap, like TSan's "Location is heap block" line. *)
  (Tsan.Report.set_symbolizer
   @@ fun addr ->
       match Memsim.Heap.find_by_addr addr with
       | Some a ->
           Some
             (Fmt.str "%s+%d (%s, %d bytes)" a.Memsim.Alloc.tag
                (addr - Memsim.Alloc.base a)
                (Memsim.Space.to_string a.Memsim.Alloc.space)
                a.Memsim.Alloc.size)
       | None -> None);
  let states : rank_state option array = Array.make nranks None in
  let failures = ref [] in
  let post_mortems = ref [] in
  (* Static intra-kernel race verdicts attached by the compile hook;
     every rank compiles its own kernel objects, so dedup by content. *)
  let static_races = ref [] in
  (* The detector responsible for the current task: host threads
     spawned with [parallel] resolve through the thread registry, rank
     main tasks through their spawn-order id. *)
  let det () =
    match Sched.Scheduler.self_id () with
    | id -> (
        match Hashtbl.find_opt (thread_registry ()) id with
        | Some (det, _, _) -> det
        | None ->
            if id >= 0 && id < nranks then
              Option.bind states.(id) (fun st -> st.detector)
            else None)
    | exception Sched.Scheduler.Not_in_scheduler -> None
  in
  (* TSan compiler instrumentation: host loads/stores and the allocator
     interception that maps/unmaps shadow. *)
  if Flavor.uses_tsan flavor then
    Memsim.Hooks.add
      {
        Memsim.Hooks.on_alloc =
          (fun a ->
            match det () with
            | Some d ->
                Tsan.Detector.on_alloc d ~base:(Memsim.Alloc.base a)
                  ~size:a.Memsim.Alloc.size
            | None -> ());
        on_free =
          (fun a ->
            match det () with
            | Some d -> Tsan.Detector.on_free d ~base:(Memsim.Alloc.base a)
            | None -> ());
        on_read =
          (fun p n ->
            match det () with
            | Some d -> Tsan.Detector.read_range d ~addr:(Memsim.Ptr.addr p) ~len:n
            | None -> ());
        on_write =
          (fun p n ->
            match det () with
            | Some d ->
                Tsan.Detector.write_range d ~addr:(Memsim.Ptr.addr p) ~len:n
            | None -> ());
      };
  (* MUST's PMPI interception, plus the cross-rank resolver its RMA
     analysis needs to annotate window accesses in the target's
     detector. *)
  if Flavor.uses_must flavor then begin
    Mpisim.Hooks.add (fun ~rank phase call ->
        match states.(rank) with
        | Some { must = Some m; _ } -> Must.Runtime.on_call m phase call
        | _ -> ());
    Must.Runtime.set_peer_resolver (fun rank ->
        if rank >= 0 && rank < nranks then
          Option.bind states.(rank) (fun st -> st.must)
        else None)
  end;
  (* The schedule explorer's MPI-event observer. Installed here — not by
     the caller — because the harness clears all PMPI hooks above; a hook
     installed before [run] would be silently wiped. *)
  (match mpi_observer with Some f -> Mpisim.Hooks.add f | None -> ());
  (* RSS probe at MPI_Finalize, as in the paper's Fig. 11 setup. *)
  Mpisim.Hooks.add (fun ~rank phase call ->
      match (phase, call) with
      | Mpisim.Hooks.Pre, Mpisim.Hooks.Finalize -> (
          match states.(rank) with
          | Some st -> st.rss <- rank_rss ~nranks ~baseline:baseline_rss st
          | None -> ())
      | _ -> ());
  let wrapped (ctx : Mpisim.Mpi.ctx) =
    let rank = ctx.Mpisim.Mpi.rank in
    let detector =
      if Flavor.uses_tsan flavor then
        Some (Tsan.Detector.create ~granule ~suppressions ())
      else None
    in
    (match (detector, access_observer) with
    | Some d, Some obs -> Tsan.Detector.set_observer d (Some obs)
    | _ -> ());
    let device = Cudasim.Device.create ~mode ~default_stream_mode () in
    let cusan =
      if Flavor.uses_cusan flavor then
        Option.map
          (fun d ->
            Cusan.Runtime.attach ?annotation ?max_range_bytes ~tsan:d
              ~dev:device ())
          detector
      else None
    in
    let must =
      if Flavor.uses_must flavor then
        Option.map
          (fun d -> Must.Runtime.create ~size:nranks ~tsan:d ~rank ~check_types ())
          detector
      else None
    in
    states.(rank) <- Some { detector; device; cusan; must; rss = 0 };
    Hashtbl.replace (thread_registry ())
      (Sched.Scheduler.self_id ())
      (detector, Option.map Tsan.Detector.main_fiber detector, device);
    (* Rank-level failures (CUDA errors, MPI aborts, simulation errors)
       kill this rank, not the harness: the cause is recorded with rank
       provenance, and the rank still reaches MPI_Finalize so its
       counters, RSS probe and already-found race reports are flushed
       into the result. Surviving ranks blocked on the dead rank are
       then reported by deadlock detection or the watchdog — exactly
       how a real MPI job with a dead rank presents. *)
    try
      app
        {
          mpi = ctx;
          dev = device;
          compile =
            (fun k ->
              if Flavor.uses_cusan flavor then begin
                Cusan.Pass.instrument_kernel ~prove:prove_static k;
                match k.Cudasim.Kernel.static_races with
                | Some rs ->
                    List.iter
                      (fun (v, d) ->
                        let entry = (k.Cudasim.Kernel.kname, v, d) in
                        if not (List.mem entry !static_races) then
                          static_races := entry :: !static_races)
                      rs
                | None -> ()
              end;
              k);
        }
    with
    | ( Cudasim.Error.Cuda_failure _ | Mpisim.Mpi.Abort _
      | Mpisim.Comm.Truncation _ | Mpisim.Comm.Invalid_rank _
      | Mpisim.Comm.Proc_failed _ | Mpisim.Comm.Revoked
      | Mpisim.Win.Target_out_of_bounds _ | Mpisim.Win.Window_freed
      | Cudasim.Device.Invalid_launch _ | Cudasim.Device.Stream_destroyed ) as
      e ->
        failures := (rank, describe_exn e) :: !failures
    | Faultsim.Injector.Rank_killed { site; _ } as e ->
        (* Supervisor: the rank is dead, not merely failed. Record the
           cause, capture a post-mortem while its state is still warm,
           and reap its unjoined host threads so they neither run on as
           orphans nor pollute deadlock diagnostics. The rank's
           [states.(rank)] entry stays: its TSan/MUST counters and
           already-found reports are flushed into the result like any
           finished rank's. Re-raised so the MPI layer marks the rank
           dead (peers get MPI_ERR_PROC_FAILED) and skips its finalize. *)
        failures := (rank, describe_exn e) :: !failures;
        let prefix = Fmt.str "rank%d:" rank in
        let unjoined =
          List.filter
            (fun n -> String.starts_with ~prefix n)
            (Sched.Scheduler.unfinished_tasks ())
        in
        post_mortems :=
          {
            pm_rank = rank;
            pm_site = Faultsim.Site.to_string site;
            pm_trace =
              (if Trace.Recorder.on () then
                 Trace.Recorder.recent_lines
                   ~pid:(Trace.Recorder.pid_of_task (Fmt.str "rank%d" rank))
                   ~k:8 ()
               else []);
            pm_pending =
              List.map (Fmt.str "%a" Mpisim.Request.pp)
                (Mpisim.Mpi.pending_requests ctx);
            pm_unjoined = unjoined;
          }
          :: !post_mortems;
        Sched.Scheduler.kill (fun n -> String.starts_with ~prefix n);
        raise e
  in
  let t0 = Unix.gettimeofday () in
  let deadlock, stall =
    match Mpisim.Mpi.run ?watchdog ?picker ~nranks wrapped with
    | () -> (None, None)
    | exception Sched.Scheduler.Deadlock blocked -> (Some blocked, None)
    | exception Sched.Scheduler.Stalled s -> (None, Some s)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* Flight-recorder context for each blocked task of a deadlock or
     watchdog stall: what that rank was doing right before it hung. *)
  let history =
    if not (Trace.Recorder.on ()) then []
    else
      let blocked =
        (match deadlock with Some pairs -> pairs | None -> [])
        @ match stall with Some s -> s.Sched.Scheduler.stall_blocked | None -> []
      in
      List.map
        (fun (task, why) ->
          ( Fmt.str "%s (blocked on %s)" task why,
            Trace.Recorder.recent_lines
              ~pid:(Trace.Recorder.pid_of_task task)
              ~k:8 () ))
        blocked
  in
  let fault_log = Faultsim.Injector.log () in
  Faultsim.Injector.disarm ();
  Memsim.Hooks.clear ();
  Mpisim.Hooks.clear ();
  Sched.Scheduler.clear_resume_hooks ();
  Must.Runtime.clear_peer_resolver ();
  Typeart.Rt.set_enabled false;
  let sts = Array.to_list states |> List.filteri (fun _ s -> s <> None)
            |> List.map Option.get in
  let with_rank f =
    List.concat
      (List.mapi (fun i st -> List.map (fun x -> (i, x)) (f st)) sts)
  in
  let races =
    with_rank (fun st ->
        match st.detector with Some d -> Tsan.Detector.races d | None -> [])
  in
  let race_events =
    List.fold_left
      (fun acc st ->
        acc
        + match st.detector with Some d -> Tsan.Detector.races_total d | None -> 0)
      0 sts
  in
  let must_errors =
    List.concat_map
      (fun st ->
        match st.must with Some m -> Must.Runtime.errors m | None -> [])
      sts
  in
  let tsan_counters =
    match sts with
    | { detector = Some d; _ } :: _ -> Tsan.Detector.counters d
    | _ -> Tsan.Counters.create ()
  in
  let cuda_counters =
    match sts with
    | { cusan = Some c; _ } :: _ -> Cusan.Runtime.counters c
    | _ -> Cusan.Counters.create ()
  in
  let tracked_read_bytes =
    List.fold_left
      (fun acc st ->
        acc
        + match st.detector with
          | Some d -> (Tsan.Detector.counters d).Tsan.Counters.read_bytes
          | None -> 0)
      0 sts
  in
  let tracked_write_bytes =
    List.fold_left
      (fun acc st ->
        acc
        + match st.detector with
          | Some d -> (Tsan.Detector.counters d).Tsan.Counters.write_bytes
          | None -> 0)
      0 sts
  in
  let rss_bytes = List.fold_left (fun acc st -> max acc st.rss) 0 sts in
  let device_exec_s, device_virtual_s =
    List.fold_left
      (fun (e, v) st ->
        let e', v' = Cudasim.Device.timing st.device in
        (e +. e', v +. v'))
      (0., 0.) sts
  in
  let proc_s =
    (max 0. (wall_s -. device_exec_s) +. device_virtual_s)
    /. float_of_int (max 1 nranks)
  in
  {
    flavor;
    nranks;
    wall_s;
    proc_s;
    device_exec_s;
    device_virtual_s;
    rss_bytes;
    races;
    race_events;
    must_errors;
    tsan_counters;
    cuda_counters;
    tracked_read_bytes;
    tracked_write_bytes;
    deadlock;
    failures = List.rev !failures;
    post_mortems = List.rev !post_mortems;
    stall;
    fault_log;
    history;
    static_races = List.sort compare !static_races;
  }
