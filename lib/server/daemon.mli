(** The cusand daemon core: a crash-isolated, backpressured, durable
    analysis service over a Unix-domain socket, sharding jobs across a
    {!Pool.t} of worker domains.

    Robustness contract:
    - a job that raises is reaped into a post-mortem reply and its
      worker slot recycled — never the daemon;
    - every job runs under the scheduler step-budget watchdog, so a
      wedged schedule becomes a labelled [stalled] verdict, not a hung
      worker;
    - admission is bounded at [queue_max] in-flight jobs; beyond the
      high-water mark the daemon sheds load with a busy/[retry_after]
      reply (health/stats stay answerable from the accept loop);
    - ok results are cached content-addressed by {!Protocol.job_digest}
      (sound because the engine is deterministic) and, with
      [state_dir] set, written through to the crash-safe {!Journal}
      before the reply leaves — a verdict a client has seen survives
      [kill -9] and is replayed into the cache on the next boot. Jobs
      run with the flight recorder off, as the batch tools run them,
      so a served verdict is byte-identical to the batch one;
    - {!request_drain} (wired to SIGTERM in bin/cusand) stops
      admission, gives in-flight jobs [drain_timeout_s] to finish,
      cancels and answers stragglers (recording them in
      [stats.abandoned]), and {!serve} returns the final stats. *)

type cfg = {
  socket_path : string;
  workers : int;  (** worker domains *)
  queue_max : int;  (** high-water mark for in-flight jobs *)
  watchdog : int;  (** scheduler step budget per job *)
  cache_cap : int;  (** max cached results; 0 disables the cache *)
  drain_timeout_s : float;
  state_dir : string option;
      (** durable journal directory; [None] keeps the cache in RAM *)
  compact_every : int;  (** journal appends between compactions *)
  verbose : bool;
}

val default_cfg : socket_path:string -> cfg
(** Defaults: 2 workers, high-water 8, and the cache in RAM
    ([state_dir = None]). *)

type stats = {
  mutable served : int;  (** ok replies, cache hits included *)
  mutable cache_hits : int;
  mutable shed : int;  (** busy replies *)
  mutable crashed : int;  (** jobs reaped with a daemon post-mortem *)
  mutable stalled : int;  (** jobs whose verdict carried a stall *)
  mutable client_errors : int;  (** error replies: bad frames, bad jobs *)
  mutable drain_cancelled : int;  (** jobs abandoned at the drain deadline *)
  mutable peak_in_flight : int;
  mutable replayed : int;  (** cache entries recovered from the journal *)
  mutable journal_appends : int;
  mutable compactions : int;
  mutable abandoned : (string * string) list;
      (** (digest, description) of jobs cancelled at the drain
          deadline, newest first — surfaced as [abandoned_jobs] in the
          drain report *)
}

val stats_json : stats -> Reporting.Mjson.t

type t

val create : cfg -> t
(** Bind and listen on [cfg.socket_path] (a stale socket file is
    unlinked), open and replay the journal when [cfg.state_dir] is set,
    and spin up the worker pool. Ignores SIGPIPE. *)

val request_drain : t -> unit
(** Signal-safe: flips an atomic the accept loop polls. *)

val draining : t -> bool

val serve : t -> stats
(** Accept and answer requests until drain is requested, then drain
    (final journal compaction included) and return the final stats. *)
