(** Per-rank ring-buffer flight recorder behind the simulators' probe
    points. Disabled probes cost a single atomic flag read ({!on});
    enabling is domain-local, so each worker of a sharded runner keeps
    an independent recorder (the CLIs force one worker under --trace).

    Probe sites guard with [if Recorder.on () then ...] so the argument
    strings of an event are never even built when tracing is off. *)

val on : unit -> bool
(** Is any recorder enabled? The single flag check on every probe's
    fast path. *)

val enable : ?capacity:int -> unit -> unit
(** Enable recording in this domain with a per-rank ring of [capacity]
    events (default 4096). Re-enabling replaces the recorder. *)

val disable : unit -> unit
(** Drop this domain's recorder (and its events). *)

val enabled_here : unit -> bool
(** Is a recorder enabled in this domain specifically? *)

(** {2 Probes} *)

val instant : ?args:(string * string) list -> cat:string -> string -> unit
val begin_span : ?args:(string * string) list -> cat:string -> string -> unit
val end_span : ?args:(string * string) list -> cat:string -> string -> unit

val complete :
  ?args:(string * string) list ->
  cat:string ->
  start_us:float ->
  dur_us:float ->
  string ->
  unit
(** A self-contained span recorded at completion: wall-clock start plus
    a duration in µs of modelled device time. *)

val set_track : string -> unit
(** Attribute subsequent events to this track (the race detector calls
    this with the current fiber name on every fiber switch). *)

val task_resume : task:string -> unit
(** Scheduler probe: task [task] is about to run. Re-derives the pid
    from the "rank<N>" naming convention, resets the track to the task,
    and emits a "resume" instant when control moved between tasks. *)

val add_vt : float -> unit
(** Charge virtual device seconds to the current rank's clock. *)

val new_epoch : unit -> unit
(** Start a new harness run: recent-history queries only see the
    current epoch, while {!events} keeps the whole session. *)

(** {2 Queries} *)

val now_us : unit -> float
(** Wall-clock µs since enable (0 when disabled). *)

val current_pid : unit -> int
val pid_of_task : string -> int

val events : unit -> Event.t list
(** All retained events, merged across ranks in emission order. *)

val dropped : unit -> int
(** Events lost to ring overwriting. *)

val recent : ?track:string -> pid:int -> k:int -> unit -> Event.t list
(** The last [k] events of rank [pid] in the current epoch, restricted
    to [track] when given — the "recent history" reports embed. *)

val recent_lines : ?track:string -> pid:int -> k:int -> unit -> string list
