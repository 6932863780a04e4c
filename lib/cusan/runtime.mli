(** The CuSan runtime (paper, Section IV-A): maps intercepted CUDA API
    calls onto ThreadSanitizer's concurrency model.

    Per device context it keeps (i) a fiber per CUDA stream, (ii) the
    event-to-synchronization-key mapping, (iii) the memory-kind view
    via UVA/TypeART, and (iv) the issuing host fiber — the four tables
    named in the paper.

    The annotation recipe for a device operation on stream S:
    + switch to S's fiber, carrying a happens-before edge from the host
      (the operation is issued after preceding host work);
    + legacy default-stream barriers: a default-stream op acquires the
      completion key of every blocking user stream; a blocking user
      stream's op acquires the default stream's key (Fig. 3);
    + mark each accessed memory range read/write, with the extent from
      TypeART (whole-allocation annotation, as in the paper);
    + release the stream's completion key (and, for default-stream
      operations, every blocking user stream's key too);
    + switch back to the issuing fiber; host-synchronous operations then
      acquire the stream's completion key.

    Host-side synchronization calls acquire completion keys:
    [cudaStreamSynchronize] the stream's, [cudaDeviceSynchronize] every
    tracked stream's, [cudaEventSynchronize] the event's, a successful
    [cudaStreamQuery] the stream's. *)

type t

(** How kernel-argument memory is annotated:
    - [Whole]: the paper's approach — the whole allocation extent behind
      every accessed device pointer.
    - [Precise]: the sound launch-time access-range analysis implemented
      in {!Range_analysis} (the Section VI-D optimization): only the
      byte range the kernel can actually touch, falling back to the
      whole extent when an index cannot be bounded. Besides the cost
      reduction, this removes false positives for kernels working on
      disjoint slices of one allocation from different streams. *)
type annotation_mode = Whole | Precise

val attach :
  ?annotation:annotation_mode ->
  ?max_range_bytes:int ->
  tsan:Tsan.Detector.t ->
  dev:Cudasim.Device.t ->
  unit ->
  t
(** Hook the runtime into a device. The default stream is tracked
    eagerly (paper, Section IV-A); user streams on demand.

    [max_range_bytes] is experimental (paper, Section VI-D): cap the
    annotated range per kernel argument instead of tracking whole
    allocations — the proposed boundary-region optimization. Unlike
    [Precise] it is unsound: it may miss races outside the cap. *)

val counters : t -> Counters.t
(** The CUDA event counters of Table I for this device/rank. *)
