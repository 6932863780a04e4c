(* The flight recorder: per-rank ring buffers of events, fed by probe
   points compiled into the simulators. When no recorder is enabled
   anywhere, [on] — a single atomic flag read — is the entire cost of a
   probe, so vanilla timings stay inside the bench regression gate.

   The recorder is domain-local, like the scheduler it observes: a
   sharded runner could in principle enable one recorder per worker,
   but the CLIs force a single worker under --trace so one file holds
   the whole story.

   Attribution: every event carries the pid (MPI rank, parsed from the
   scheduler's "rank<N>" task-naming convention) and a track — the
   scheduler task, overridden by the race detector with the current
   fiber name whenever a detector is attached. Reports query the last K
   events of a (pid, track) pair as "recent history". *)

(* Count of enabled recorders across all domains. Probes bail when it
   is zero without even touching domain-local storage. *)
let armed : int Atomic.t = Atomic.make 0

let on () = Atomic.get armed > 0

type t = {
  capacity : int;
  rings : (int, Event.t Ring.t) Hashtbl.t; (* pid -> ring *)
  vts : (int, float) Hashtbl.t; (* pid -> virtual device seconds so far *)
  t0 : float;
  mutable seq : int;
  mutable epoch : int;
  mutable track : string; (* attribution for the next event *)
  mutable pid : int;
  mutable task : string; (* last scheduler task resumed *)
}

let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let enable ?(capacity = 4096) () =
  (match Domain.DLS.get current with
  | Some _ -> () (* re-enabling replaces the recorder, keeps the count *)
  | None -> Atomic.incr armed);
  Domain.DLS.set current
    (Some
       {
         capacity;
         rings = Hashtbl.create 8;
         vts = Hashtbl.create 8;
         t0 = Unix.gettimeofday ();
         seq = 0;
         epoch = 0;
         track = "main";
         pid = -1;
         task = "";
       })

let disable () =
  match Domain.DLS.get current with
  | None -> ()
  | Some _ ->
      Atomic.decr armed;
      Domain.DLS.set current None

let get () = Domain.DLS.get current
let enabled_here () = Option.is_some (get ())
let with_rec f = match get () with None -> () | Some r -> f r

let current_pid () = match get () with None -> -1 | Some r -> r.pid

let now_us () =
  match get () with
  | None -> 0.
  | Some r -> (Unix.gettimeofday () -. r.t0) *. 1e6

(* The MPI simulator names rank tasks "rank<N>" (possibly with a
   ":threadM" suffix); anything else has no rank to attribute to. *)
let pid_of_task name =
  try Scanf.sscanf name "rank%d" Fun.id
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> -1

let ring_of r pid =
  match Hashtbl.find_opt r.rings pid with
  | Some ring -> ring
  | None ->
      let ring = Ring.create r.capacity in
      Hashtbl.replace r.rings pid ring;
      ring

let vt_of r pid = try Hashtbl.find r.vts pid with Not_found -> 0.

let emit ?ts_us r phase ~cat ~name ~args =
  let ts_us =
    match ts_us with
    | Some t -> t
    | None -> (Unix.gettimeofday () -. r.t0) *. 1e6
  in
  let e =
    {
      Event.seq = r.seq;
      epoch = r.epoch;
      ts_us;
      vt_us = vt_of r r.pid *. 1e6;
      pid = r.pid;
      track = r.track;
      phase;
      cat;
      name;
      args;
    }
  in
  r.seq <- r.seq + 1;
  Ring.add (ring_of r r.pid) e

(* --- probe API (each caller guards with [on]) ------------------------- *)

let instant ?(args = []) ~cat name =
  with_rec (fun r -> emit r Event.Instant ~cat ~name ~args)

let begin_span ?(args = []) ~cat name =
  with_rec (fun r -> emit r Event.Begin ~cat ~name ~args)

let end_span ?(args = []) ~cat name =
  with_rec (fun r -> emit r Event.End ~cat ~name ~args)

let complete ?(args = []) ~cat ~start_us ~dur_us name =
  with_rec (fun r ->
      emit ~ts_us:start_us r (Event.Complete dur_us) ~cat ~name ~args)

(* The race detector retargets attribution whenever it switches or
   activates a fiber. *)
let set_track name = with_rec (fun r -> r.track <- name)

(* Scheduler probe: the cooperative scheduler resumed [task]. Updates
   attribution, and records an instant only when control actually moved
   to a different task (the FIFO run queue resumes the same task many
   times in a row). *)
let task_resume ~task =
  with_rec (fun r ->
      r.pid <- pid_of_task task;
      r.track <- task;
      if r.task <> task then begin
        r.task <- task;
        emit r Event.Instant ~cat:"sched" ~name:"resume"
          ~args:[ ("task", task) ]
      end)

(* Virtual device time: the device simulator charges each op's
   cost-model price to the rank it executed under. *)
let add_vt seconds =
  with_rec (fun r -> Hashtbl.replace r.vts r.pid (vt_of r r.pid +. seconds))

(* The harness bumps the epoch at the start of every run: recent-history
   queries never leak events from an earlier case of a multi-case traced
   session, while the exported timeline keeps everything. *)
let new_epoch () =
  with_rec (fun r ->
      r.epoch <- r.epoch + 1;
      Hashtbl.reset r.vts;
      r.pid <- -1;
      r.track <- "main";
      r.task <- "")

(* --- queries ---------------------------------------------------------- *)

let events () =
  match get () with
  | None -> []
  | Some r ->
      Hashtbl.fold
        (fun _ ring acc -> List.rev_append (Ring.to_list ring) acc)
        r.rings []
      |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)

let dropped () =
  match get () with
  | None -> 0
  | Some r -> Hashtbl.fold (fun _ ring acc -> acc + Ring.dropped ring) r.rings 0

(* The last [k] events of [pid] in the current epoch, restricted to
   [track] when given — the "recent history" that reports embed. *)
let recent ?track ~pid ~k () =
  match get () with
  | None -> []
  | Some r -> (
      match Hashtbl.find_opt r.rings pid with
      | None -> []
      | Some ring ->
          let matching =
            List.filter
              (fun e ->
                e.Event.epoch = r.epoch
                &&
                match track with
                | None -> true
                | Some t -> e.Event.track = t)
              (Ring.to_list ring)
          in
          let n = List.length matching in
          if n <= k then matching
          else List.filteri (fun i _ -> i >= n - k) matching)

let recent_lines ?track ~pid ~k () =
  List.map Event.to_line (recent ?track ~pid ~k ())
