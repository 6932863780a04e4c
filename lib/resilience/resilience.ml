(* Application-level resilience building blocks for the simulated
   MPI+CUDA stack: bounded retry with deterministic backoff and
   checkpoint/restore of application buffers.

   Everything here is deterministic by construction. "Time" is
   scheduler progress (cooperative yields), not wall-clock time, so a
   retry loop backs off by yielding a fixed, attempt-dependent number
   of times — the interleaving it produces is a pure function of the
   program, exactly like the rest of the simulator. *)

exception Retries_exhausted of { label : string; attempts : int; last : exn }

(* Deterministic backoff: 2^attempt cooperative yields (capped), the
   virtual-time analogue of truncated exponential backoff. Yielding
   lets peers make progress — e.g. finish the recovery collective this
   rank will join on the next attempt.

   Jitter is deterministic too: callers that want decorrelated retry
   schedules (several cusanctl clients hammering a busy daemon) pass a
   seeded Faultsim.Prng stream, never wall-clock noise or [Random], so
   any retry schedule is a pure function of its seed and replays under
   --seed exactly like a fault plan does. The draw adds up to one extra
   backoff period: full-jitter on the top half of the window. *)
let backoff_yields ?jitter ~attempt () =
  let base = 1 lsl min attempt 10 in
  match jitter with
  | None -> base
  | Some prng -> base + (Int64.to_int (Faultsim.Prng.next prng) land (base - 1))

(* The whole backoff schedule for [attempts] retries under [seed] — the
   sequence a seeded client will sleep through, laid bare for tests to
   pin and for operators to reason about. *)
let backoff_schedule ~seed ~attempts =
  let prng = Faultsim.Prng.create seed in
  List.init attempts (fun i -> backoff_yields ~jitter:prng ~attempt:(i + 1) ())

let yield_n n =
  for _ = 1 to n do
    Sched.Scheduler.yield ()
  done

(* Run [f], retrying on exceptions [retryable] accepts, up to
   [max_attempts] total attempts with deterministic backoff between
   them. [f] receives the 1-based attempt number so it can switch
   strategy (e.g. re-shrink the communicator after the first failure).
   Non-retryable exceptions propagate immediately; exhausting the
   budget raises [Retries_exhausted] carrying the last failure.

   [on_backoff] is where the backoff quantum is spent. The default
   yields on the cooperative scheduler — the in-simulation callers'
   medium. Out-of-simulation callers (cusanctl talking to a daemon over
   a socket) map yields onto wall-clock sleeps instead; the *count* of
   yields stays the deterministic part either way. *)
let with_retries ?(label = "retry") ?(max_attempts = 3) ?jitter
    ?(on_backoff = fun ~yields -> yield_n yields) ~retryable f =
  if max_attempts <= 0 then invalid_arg "with_retries: max_attempts";
  let rec go attempt =
    match f ~attempt with
    | v -> v
    | exception e when retryable e ->
        if Trace.Recorder.on () then
          Trace.Recorder.instant ~cat:"resilience"
            ~args:
              [
                ("label", label);
                ("attempt", string_of_int attempt);
                ("error", Printexc.to_string e);
              ]
            "retry";
        if attempt >= max_attempts then
          raise (Retries_exhausted { label; attempts = attempt; last = e })
        else begin
          on_backoff ~yields:(backoff_yields ?jitter ~attempt ());
          go (attempt + 1)
        end
  in
  go 1

(* Checkpoint/restore of application buffers. Snapshots are raw byte
   copies of simulated memory — like writing to stable storage, they
   are invisible to load/store instrumentation and perturb no race
   report. Keyed by label so one checkpoint can hold several buffers
   and survive the owning buffers being reallocated after recovery. *)
module Checkpoint = struct
  type t = (string, Bytes.t) Hashtbl.t

  let create () : t = Hashtbl.create 4

  let save (t : t) key ptr ~bytes =
    Hashtbl.replace t key (Memsim.Access.raw_read_bytes ptr ~bytes);
    if Trace.Recorder.on () then
      Trace.Recorder.instant ~cat:"resilience"
        ~args:[ ("key", key); ("bytes", string_of_int bytes) ]
        "checkpoint_save"

  let mem (t : t) key = Hashtbl.mem t key
  let size (t : t) key = Option.map Bytes.length (Hashtbl.find_opt t key)

  let restore (t : t) key ptr =
    match Hashtbl.find_opt t key with
    | None -> invalid_arg (Printf.sprintf "Checkpoint.restore: no snapshot %S" key)
    | Some snap ->
        let bytes = Bytes.length snap in
        Memsim.Access.raw_write_bytes ptr snap;
        if Trace.Recorder.on () then
          Trace.Recorder.instant ~cat:"resilience"
            ~args:[ ("key", key); ("bytes", string_of_int bytes) ]
            "checkpoint_restore"
end
