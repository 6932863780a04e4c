(* Work-sharing domain pool: a mutex-guarded FIFO drained by a fixed
   set of domains. Dynamic dispatch (idle workers take the next task)
   load-balances like work stealing without per-worker deques.

   The one subtle feature is [exclusively]: benchmark cells must time
   their measured section with the machine otherwise quiet, so a task
   can ask for the pool to drain around a critical section. While an
   exclusive section is pending or running, idle workers pause instead
   of starting new tasks; workers mid-task finish (or themselves reach
   an [exclusively], which parks them in the same queue). [active]
   counts workers currently executing task code *outside* an exclusive
   wait, so "pool drained" is exactly [active = 0]. *)

type t = {
  m : Mutex.t;
  changed : Condition.t; (* any state below changed *)
  queue : (unit -> unit) Queue.t;
  mutable active : int; (* workers executing a task right now *)
  mutable excl_pending : int; (* tasks waiting to run exclusively *)
  mutable excl_running : bool;
  mutable stop : bool;
  size : int;
  mutable domains : unit Domain.t list; (* emptied by the first shutdown *)
}

let size t = t.size

let may_start_task t =
  (not (Queue.is_empty t.queue)) && t.excl_pending = 0 && not t.excl_running

let worker t () =
  Mutex.lock t.m;
  let rec loop () =
    if may_start_task t then begin
      let task = Queue.pop t.queue in
      t.active <- t.active + 1;
      Mutex.unlock t.m;
      (try task () with _ -> ());
      Mutex.lock t.m;
      t.active <- t.active - 1;
      Condition.broadcast t.changed;
      loop ()
    end
    else if t.stop && Queue.is_empty t.queue then Mutex.unlock t.m
    else begin
      Condition.wait t.changed t.m;
      loop ()
    end
  in
  loop ()

let create ~workers =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let t =
    {
      m = Mutex.create ();
      changed = Condition.create ();
      queue = Queue.create ();
      active = 0;
      excl_pending = 0;
      excl_running = false;
      stop = false;
      size = workers;
      domains = [];
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (worker t));
  t

let submit t task =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.broadcast t.changed;
  Mutex.unlock t.m

let exclusively t f =
  Mutex.lock t.m;
  t.excl_pending <- t.excl_pending + 1;
  (* Step out of the active count while waiting, so several exclusive
     requesters don't deadlock each other: each waits only for workers
     that are genuinely running task code. *)
  t.active <- t.active - 1;
  Condition.broadcast t.changed;
  while t.excl_running || t.active > 0 do
    Condition.wait t.changed t.m
  done;
  t.excl_running <- true;
  Mutex.unlock t.m;
  let result = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  Mutex.lock t.m;
  t.excl_running <- false;
  t.excl_pending <- t.excl_pending - 1;
  t.active <- t.active + 1;
  Condition.broadcast t.changed;
  Mutex.unlock t.m;
  match result with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map_pool t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let out = Array.make n None in
  let finished = ref 0 in
  let first_error = ref None in
  let m = Mutex.create () in
  let done_ = Condition.create () in
  Array.iteri
    (fun i x ->
      submit t (fun () ->
          let r =
            try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock m;
          (match r with
          | Ok v -> out.(i) <- Some v
          | Error _ when !first_error = None -> first_error := Some r
          | Error _ -> ());
          incr finished;
          Condition.broadcast done_;
          Mutex.unlock m))
    items;
  Mutex.lock m;
  while !finished < n do
    Condition.wait done_ m
  done;
  Mutex.unlock m;
  (match !first_error with
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | _ -> ());
  Array.to_list out
  |> List.map (function Some v -> v | None -> failwith "Pool.map_pool: lost result")

(* --- cancellable submissions -------------------------------------------- *)

(* Cancellation is cooperative: domains cannot be preempted, so the
   handle is just the flag. A task still queued when the flag is set is
   skipped without running user code; a running task only observes the
   request through the [cancelled] probe it was handed. *)

type handle = bool Atomic.t

let submit_cancellable t f =
  let flag = Atomic.make false in
  submit t (fun () ->
      if not (Atomic.get flag) then f ~cancelled:(fun () -> Atomic.get flag));
  flag

let cancel flag = Atomic.set flag true

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.changed;
  (* The stop flag sends every worker home once the queue drains. *)
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ds

let default_workers () = max 1 (Domain.recommended_domain_count ())

let map ?workers f xs =
  let w = match workers with Some w -> w | None -> default_workers () in
  if w <= 1 then List.map f xs
  else begin
    let t = create ~workers:(min w (List.length xs |> max 1)) in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map_pool t f xs)
  end
