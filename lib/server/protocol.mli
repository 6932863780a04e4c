(** cusand wire protocol: newline-delimited {!Reporting.Mjson} frames
    over a Unix-domain socket (schema ["cusand/2"]; v1 requests are
    still accepted), one request and one reply per connection. Frames
    are size-bounded and torn/hostile input decodes to an explicit
    error — the accept loop never sees an exception from this layer. *)

module Mjson = Reporting.Mjson

val schema : string

val max_frame : int
(** Upper bound on a frame's byte length; longer frames are refused. *)

(** A job the daemon can execute. *)
type job =
  | Lint of { target : string }
      (** static intra-kernel race lint of one kirlint target id *)
  | Soak of { case : string; seed : int; faults : string option }
      (** one correctness-matrix case, optionally under a seeded fault
          plan (the cutests [--faults] grammar) *)
  | Bench of { app : string; flavor : string }
      (** one app × tool-configuration bench cell *)
  | Boom
      (** chaos drill: raises inside the worker on purpose, to exercise
          crash isolation end-to-end *)
  | Spin of { steps : int }
      (** wedge drill: spin in-sim until the step-budget watchdog fires
          after [steps] scheduler steps — a worker-occupying job of
          tunable duration that ends in a labelled stalled verdict,
          used to exercise backpressure and drain *)

type request =
  | Submit of job
  | Health
  | Stats
  | Shutdown

val job_key : job -> string
(** Canonical content address: equal keys mean the same deterministic
    computation — the correctness argument for the result cache. *)

val job_digest : job -> string
(** Hex digest of {!job_key}; the ["job"] field of replies. *)

val job_describe : job -> string
(** One-line human rendering for logs. *)

val request_to_json : request -> Mjson.t

val parse_request : string -> (request, string) result
(** Parse one frame body. Any failure (bad JSON, wrong schema, missing
    fields) is an [Error] message suitable for an error reply. *)

val ok_reply :
  ?cached:bool -> job:string -> elapsed_s:float -> Mjson.t -> Mjson.t

val ok_frame :
  ?cached:bool -> job:string -> elapsed_s:float -> string -> string
(** [ok_frame ~job ~elapsed_s text] is the frame of an ok reply around a
    result already serialized: for [text = Mjson.to_string r] it equals
    [Mjson.to_string (ok_reply ~job ~elapsed_s r) ^ "\n"], so the daemon
    serializes each verdict once and sends cache hits without
    re-serializing it. *)

val crashed_reply :
  job:string -> error:string -> backtrace:string list -> Mjson.t
(** Tombstone for a job the worker reaped: the daemon-level analogue of
    a crashed rank's post-mortem. *)

val retry_after_hint : in_flight:int -> high_water:int -> queue_len:int -> int
(** The busy reply's backoff hint:
    [max 1 (in_flight - high_water + queue_len)] — scales with the
    overshoot past the high-water mark plus the work queued behind the
    running workers, never constant under growing load. *)

val busy_reply : retry_after:int -> in_flight:int -> high_water:int -> Mjson.t
(** Load-shed reply; [retry_after] is the {!retry_after_hint}
    deterministic backoff hint in abstract units the client folds into
    its retry schedule. *)

val error_reply : string -> Mjson.t

type read_error =
  | Closed  (** peer closed before sending anything *)
  | Truncated of string  (** EOF (or receive timeout) mid-frame *)
  | Oversized of int  (** frame exceeded {!max_frame} *)

val read_error_to_string : read_error -> string

val read_frame : Unix.file_descr -> (string, read_error) result
(** Read one newline-terminated frame, bounded by {!max_frame}. *)

val write_frame : Unix.file_descr -> Mjson.t -> unit
(** Write one frame (appends the newline). Raises [Unix.Unix_error] on
    a broken peer. *)

val frame : Mjson.t -> string
(** The bytes of one frame: compact JSON and the newline. *)

val write_frame_bytes : Unix.file_descr -> string -> unit
(** Write a frame already serialized, its newline included (a {!frame}
    or an {!ok_frame}). Raises like {!write_frame}. *)
