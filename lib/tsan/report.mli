(** Data race reports.

    An access is described by the fiber that performed it and an
    "origin" — the context label active when it was annotated (e.g.
    ["kernel:jacobi"] or ["MPI_Isend"]), standing in for the stack trace
    real TSan would print. *)

type access = {
  fiber : string;  (** name of the fiber that performed the access *)
  kind : [ `Read | `Write ];
  origin : string;  (** context label, see {!Detector.with_context} *)
}

type t = {
  addr : int;  (** address of the colliding shadow cell *)
  bytes : int;  (** granule size of that cell *)
  current : access;  (** the access that detected the race *)
  previous : access;  (** the unordered earlier access *)
  location : string option;
      (** symbolized allocation (e.g. ["d_anew+256"]), TSan's "Location
          is heap block" line *)
  history : (string * string list) list;
      (** recent flight-recorder events per involved fiber, rendered as
          one-line strings; empty unless a {!Trace.Recorder} was enabled
          when the race was detected *)
}

val set_symbolizer : (int -> string option) -> unit
(** Resolves raw addresses to allocation descriptions in new reports.
    The harness points this at the simulated heap; defaults to
    [fun _ -> None]. The hook is domain-local, so sharded runners can
    each target their own heap. *)

val symbolize : int -> string option
(** Apply the current domain's symbolizer. *)

val pp : Format.formatter -> t -> unit
(** Renders in the style of TSan's "WARNING: data race" reports. *)

val to_string : t -> string

val dedup_key : t -> string * [ `Read | `Write ] * string * [ `Read | `Write ]
(** Key used to deduplicate reports: the same pair of code locations
    racing on many cells of one buffer is a single finding. *)
