(** Flight-recorder events with dual timestamps: wall clock and the
    rank's virtual device time (see {!Recorder}). *)

type phase =
  | Begin  (** span opens (Chrome "B") *)
  | End  (** span closes (Chrome "E") *)
  | Instant  (** point event (Chrome "i") *)
  | Complete of float
      (** self-contained span; the payload is its duration in µs of
          modelled device time (Chrome "X") *)

type t = {
  seq : int;  (** global emission order: stable merge key across rings *)
  epoch : int;  (** harness run this event belongs to *)
  ts_us : float;  (** wall clock, µs since the recorder was enabled *)
  vt_us : float;  (** the rank's virtual device time, µs *)
  pid : int;  (** MPI rank; -1 outside rank tasks *)
  track : string;  (** scheduler task or race-detector fiber *)
  phase : phase;
  cat : string;  (** probe family: sched, cuda, mpi, cusan, must, fault *)
  name : string;
  args : (string * string) list;
}

val to_line : t -> string
