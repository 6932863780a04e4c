(** The MUST runtime slice relevant to this reproduction (paper, Section
    II-B): intercept MPI calls and expose their memory-access and
    concurrency semantics to ThreadSanitizer.

    - Blocking calls annotate their buffer accesses on the calling host
      fiber (a send reads the buffer, a receive writes it).
    - Each non-blocking operation gets its own TSan fiber (Fig. 1): the
      buffer access is annotated on that fiber, which then releases a
      per-request key; the completion call (Wait/Waitall/successful
      Test) acquires it.
    - With TypeART enabled, every communication buffer is checked
      against the declared MPI datatype and the allocation extent. *)

type t

val create :
  ?size:int -> tsan:Tsan.Detector.t -> rank:int -> check_types:bool -> unit -> t
(** One instance per rank. [size] is the communicator size (used for
    collective buffer extents); [check_types] enables the TypeART
    datatype/extent checks — the paper's benchmarks run with them off
    ("MUST is configured to only check for data races"). *)

val on_call : t -> Mpisim.Hooks.phase -> Mpisim.Hooks.call -> unit
(** The interception handler, registered with {!Mpisim.Hooks.add}. *)

val errors : t -> Errors.t list
(** TypeART-backed findings, in detection order. *)

val mpi_calls : t -> int

(** {1 RMA (one-sided) analysis}

    A Put/Get/Accumulate's window access lands in the {e target} rank's
    detector (see {!Rma}); the resolver makes that distributed step
    explicit. The harness points it at the per-rank MUST instances of
    the current run. *)

val set_peer_resolver : (int -> t option) -> unit
val clear_peer_resolver : unit -> unit
