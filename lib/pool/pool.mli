(** Work-sharing domain pool.

    A fixed set of OCaml 5 domains drains a shared task queue — the
    execution substrate for sharding embarrassingly parallel per-case
    work (the correctness matrix, its fault-injection re-run, bench
    cells) across cores. Tasks are dispatched dynamically (a worker
    takes the next queued task the moment it goes idle), which gives
    work-stealing-style load balance with a plain mutex-guarded queue.

    All per-run simulator and tool state is domain-local (see the DLS
    conversions in sched/memsim/mpisim/tsan/typeart/faultsim), so a task
    that runs one harness execution end-to-end is domain-safe by
    construction, and results are independent of which worker ran it. *)

type t
(** A pool handle. *)

val create : workers:int -> t
(** Spawn [workers] (≥ 1) worker domains. The caller's domain is not a
    worker: submitting is non-blocking, and {!map_pool} parks the caller
    until its batch drains. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task. Exceptions escaping a bare submitted task are
    swallowed (use {!map_pool} to propagate them). *)

val map_pool : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_pool t f xs] evaluates [f x] for every element on the pool and
    returns results in input order, regardless of completion order —
    the deterministic-aggregation primitive. The first exception raised
    by any [f x] is re-raised in the caller (after the batch drains).
    Can be called from several threads/tasks concurrently. *)

val exclusively : t -> (unit -> 'a) -> 'a
(** [exclusively t f] runs [f] while the pool is drained: the calling
    task waits until every other worker is idle (finished its current
    task and barred from starting new ones), runs [f] alone, then lets
    the pool resume. Benchmark cells wrap their timed section in this so
    concurrent cells never pollute a measurement. Must be called from
    inside a task running on the pool; concurrent callers serialize. *)

(** {2 Cancellable submissions}

    The daemon-facing surface: a submitted job can be abandoned by the
    caller. Domains cannot be preempted, so cancellation is cooperative
    — a task that has not started yet is simply never run, and a running
    task observes the request only through the [cancelled] probe it was
    handed (the simulator's step-budget watchdog bounds how long it can
    ignore it). *)

type handle
(** One submitted task's cancellation request. *)

val submit_cancellable : t -> (cancelled:(unit -> bool) -> unit) -> handle
(** Enqueue a task that receives a cancellation probe. Like {!submit},
    exceptions escaping the task are swallowed. *)

val cancel : handle -> unit
(** Request cancellation: a pending task never runs; a running task
    keeps its worker slot until it next polls [cancelled] (or
    finishes). *)

val shutdown : t -> unit
(** Finish all queued tasks, then join the worker domains. The pool
    cannot be used afterwards. Idempotent. *)

val default_workers : unit -> int
(** A sensible worker count for this machine:
    [Domain.recommended_domain_count ()], at least 1. *)

val map : ?workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [map ~workers f xs] creates a pool, maps, and
    shuts it down. [workers <= 1] (or omitted on a single-core machine)
    degrades to plain [List.map] on the calling domain — byte-identical
    to sequential execution by construction. *)
