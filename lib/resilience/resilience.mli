(** Application-level resilience building blocks: bounded retry with
    deterministic backoff and checkpoint/restore of application
    buffers.

    Deterministic by construction: "time" is scheduler progress
    (cooperative yields), never wall-clock time, so recovery paths
    replay exactly like the rest of the simulator. *)

exception Retries_exhausted of { label : string; attempts : int; last : exn }

val backoff_yields : ?jitter:Faultsim.Prng.t -> attempt:int -> unit -> int
(** [2^attempt] capped at 1024 — the virtual-time analogue of truncated
    exponential backoff. With [jitter], a {!Faultsim.Prng} draw adds up
    to one extra backoff period (full-jitter on the top half of the
    window): deterministic decorrelation, reproducible under a seed,
    never wall-clock or [Random] noise. *)

val backoff_schedule : seed:int -> attempts:int -> int list
(** The jittered yield counts a fresh [Prng.create seed] stream produces
    for attempts [1..attempts] — the exact schedule a seeded retry loop
    will spend, pinnable by tests. *)

val with_retries :
  ?label:string ->
  ?max_attempts:int ->
  ?jitter:Faultsim.Prng.t ->
  ?on_backoff:(yields:int -> unit) ->
  retryable:(exn -> bool) ->
  (attempt:int -> 'a) ->
  'a
(** Run the body, retrying on exceptions [retryable] accepts, up to
    [max_attempts] (default 3) total attempts, spending
    {!backoff_yields} (jittered when [jitter] is given) between attempts
    so peers can progress (e.g. join the recovery collective). The body
    receives the 1-based attempt number. [on_backoff] chooses the
    backoff medium: the default yields on the cooperative scheduler;
    out-of-simulation callers (the cusand client) map the same yield
    counts onto wall-clock sleeps. Non-retryable exceptions propagate;
    @raise Retries_exhausted when the budget is spent. *)

(** Checkpoint/restore of application buffers, keyed by label. Raw byte
    snapshots of simulated memory — like stable storage, invisible to
    load/store instrumentation, perturbing no race report. *)
module Checkpoint : sig
  type t

  val create : unit -> t

  val save : t -> string -> Memsim.Ptr.t -> bytes:int -> unit
  (** Snapshot [bytes] bytes behind the pointer under the key,
      replacing any previous snapshot. *)

  val mem : t -> string -> bool

  val size : t -> string -> int option
  (** Size in bytes of the stored snapshot, if any. *)

  val restore : t -> string -> Memsim.Ptr.t -> unit
  (** Copy the snapshot back behind the pointer (which may be a
      different allocation than the one saved from).
      @raise Invalid_argument when no snapshot exists under the key or
      the target is too small. *)
end
