(* The CuSan runtime (paper, Section IV-A): maps intercepted CUDA API
   calls onto ThreadSanitizer's concurrency model.

   Per device context it keeps (i) a fiber per CUDA stream, (ii) the
   event-to-synchronization-key mapping, (iii) the memory-kind view
   (via UVA / TypeART), and (iv) the host fiber reference — the four
   tables named in the paper.

   Annotation recipe for a device operation (kernel, memcpy, memset) on
   stream S:
   1. switch to S's fiber, carrying a happens-before edge from the host
      (the operation is issued after preceding host work);
   2. if S is the legacy default stream: acquire the completion key of
      every blocking user stream (the implicit barrier of Fig. 3);
      if S is a blocking user stream: acquire the default stream's
      completion key (it must wait for prior default-stream work);
   3. mark each accessed memory range read/write, with the extent from
      TypeART (whole-allocation annotation, as in the paper);
   4. release the stream's completion key — and, for default-stream
      operations, the completion key of every blocking user stream too
      ("starting an arc for each other stream", Table I discussion);
   5. switch back to the host fiber (no synchronization).

   Host-side synchronization calls acquire completion keys:
   cudaStreamSynchronize the stream's, cudaDeviceSynchronize every
   tracked stream's, cudaEventSynchronize the event's, and a successful
   cudaStreamQuery the stream's. Host-synchronous memory operations
   (per the semantics matrix) acquire their stream's key after the
   device-side annotation. *)

module D = Cudasim.Device
module K = Cudasim.Kernel
module T = Tsan.Detector

(* How kernel-argument memory is annotated:
   - [Whole]: the paper's approach — the entire allocation extent behind
     every accessed device pointer (Section IV-A).
   - [Precise]: the sound launch-time access-range analysis (the
     Section VI-D optimization, implemented in Range_analysis): only the
     byte range the kernel can actually touch, falling back to the whole
     extent when an index cannot be bounded. Besides the cost reduction,
     this removes false positives for kernels working on disjoint slices
     of one allocation from different streams. *)
type annotation_mode = Whole | Precise

type t = {
  tsan : T.t;
  dev : D.t;
  counters : Counters.t;
  fibers : (int, T.fiber) Hashtbl.t; (* sid -> fiber *)
  mutable tracked : int list; (* the sids in [fibers], ascending *)
  mutable blocking : int list;
      (* the sids of the device's live blocking user streams, ascending:
         kept as streams are created and destroyed, so a default-stream
         op does not rebuild the device's stream list *)
  host : T.fiber;
  annotation : annotation_mode;
  max_range_bytes : int option;
      (* Experimental (paper, Section VI-D): cap the annotated range per
         kernel argument instead of tracking the whole allocation —
         models the proposed optimization of focusing on the boundary
         regions exchanged via MPI. May miss races outside the cap. *)
}

(* Synchronization-key spaces, disjoint from MUST's request keys. *)
let stream_key sid = 0x1_0000_0000 + sid
let event_key eid = 0x2_0000_0000 + eid

(* [sid] into an ascending list of sids, once. *)
let rec insert sid = function
  | [] -> [ sid ]
  | s :: rest as l ->
      if sid < s then sid :: l else if sid = s then l else s :: insert sid rest

let fiber_of t (s : D.stream) =
  match Hashtbl.find_opt t.fibers s.D.sid with
  | Some f -> f
  | None ->
      let name =
        if s.D.is_default then
          if s.D.sid = 0 then "cuda:default-stream"
          else Fmt.str "cuda:ptds-stream%d" s.D.sid
        else Fmt.str "cuda:stream%d" s.D.sid
      in
      let f = T.fiber_create t.tsan name in
      Hashtbl.replace t.fibers s.D.sid f;
      t.tracked <- insert s.D.sid t.tracked;
      t.counters.Counters.streams <- t.counters.Counters.streams + 1;
      f

let is_blocking_user (s : D.stream) = (not s.D.is_default) && s.D.flags = D.Blocking

(* Extent of the accessed range behind a device pointer: TypeART's
   allocation query when available, the raw allocation extent otherwise
   (CuSan depends on TypeART for exactly this, paper Section II-C). *)
let extent_of (p : Memsim.Ptr.t) =
  match Typeart.Pass.extent_at (Memsim.Ptr.addr p) with
  | Some bytes -> bytes
  | None -> Memsim.Ptr.remaining p

type range = { ptr : Memsim.Ptr.t; bytes : int; kind : [ `Read | `Write | `Rw ] }

(* Kernel argument lists routinely alias (the same buffer passed twice,
   e.g. an in-place update): annotating the extent once is enough — the
   detector's state transition is idempotent within one operation — so
   drop exact duplicates before walking the shadow. Order-preserving on
   first occurrence; argument lists are short. *)
let dedupe_ranges ranges =
  List.fold_left
    (fun acc r ->
      if
        List.exists
          (fun r' ->
            Memsim.Ptr.addr r'.ptr = Memsim.Ptr.addr r.ptr
            && r'.bytes = r.bytes && r'.kind = r.kind)
          acc
      then acc
      else r :: acc)
    [] ranges
  |> List.rev

(* Steps 1-5 above. The issuing fiber is saved and restored (rather than
   assuming a single host fiber) so interception works from any host
   thread — required for per-thread default stream support. *)
let device_op t (s : D.stream) ~label ~(ranges : range list) ~host_syncs =
  let caller = T.current_fiber t.tsan in
  let f = fiber_of t s in
  let legacy = D.default_mode t.dev = D.Legacy in
  T.switch_to_fiber_sync t.tsan f;
  (if Trace.Recorder.on () then
     let bytes = List.fold_left (fun a r -> a + r.bytes) 0 ranges in
     Trace.Recorder.instant ~cat:"cusan"
       ~args:
         [
           ("ranges", string_of_int (List.length ranges));
           ("bytes", string_of_int bytes);
         ]
       ("annotate:" ^ label));
  (if legacy then
     if s.D.is_default then
       List.iter (fun sid -> T.happens_after t.tsan (stream_key sid)) t.blocking
     else if s.D.flags = D.Blocking then T.happens_after t.tsan (stream_key 0));
  T.with_context t.tsan label (fun () ->
      List.iter
        (fun r ->
          match r.kind with
          | `Read -> T.read_range t.tsan ~addr:(Memsim.Ptr.addr r.ptr) ~len:r.bytes
          | `Write ->
              T.write_range t.tsan ~addr:(Memsim.Ptr.addr r.ptr) ~len:r.bytes
          | `Rw -> T.rw_range t.tsan ~addr:(Memsim.Ptr.addr r.ptr) ~len:r.bytes)
        ranges);
  T.happens_before t.tsan (stream_key s.D.sid);
  if legacy && s.D.is_default then
    List.iter (fun sid -> T.happens_before t.tsan (stream_key sid)) t.blocking;
  T.switch_to_fiber t.tsan caller;
  if host_syncs then T.happens_after t.tsan (stream_key s.D.sid)

let cap t bytes =
  match t.max_range_bytes with Some c -> min c bytes | None -> bytes

(* Whole-allocation annotation, as in the paper. *)
let whole_ranges t (k : K.t) (args : Kir.Interp.value array) =
  let attr_of i =
    match k.K.access with
    | Some attrs when i < Array.length attrs -> attrs.(i)
    | Some _ -> None
    | None ->
        (* Unanalyzed kernel: conservatively read+write every pointer. *)
        Some K.RW
  in
  let ranges = ref [] in
  Array.iteri
    (fun i arg ->
      match arg with
      | Kir.Interp.VPtr p -> (
          match attr_of i with
          | None -> ()
          | Some a ->
              let bytes = cap t (extent_of p) in
              let kind =
                match (K.reads a, K.writes a) with
                | true, true -> Some `Rw
                | true, false -> Some `Read
                | false, true -> Some `Write
                | false, false -> None
              in
              Option.iter
                (fun kind -> ranges := { ptr = p; bytes; kind } :: !ranges)
                kind)
      | _ -> ())
    args;
  dedupe_ranges (List.rev !ranges)

(* Precise annotation from the launch-time range analysis; clips the
   derived byte intervals to the allocation and falls back to the whole
   extent per argument when the analysis could not bound an index. *)
let precise_ranges t (k : K.t) (args : Kir.Interp.value array) ~grid =
  match k.K.kir with
  | None -> whole_ranges t k args
  | Some (m, entry) -> (
      match Range_analysis.analyze_launch m ~entry ~args ~grid with
      | None -> whole_ranges t k args
      | Some s ->
          let ranges = ref [] in
          Array.iteri
            (fun i arg ->
              match arg with
              | Kir.Interp.VPtr p ->
                  let extent = extent_of p in
                  if s.Range_analysis.imprecise.(i) then
                    ranges :=
                      { ptr = p; bytes = cap t extent; kind = `Rw } :: !ranges
                  else begin
                    let clip kind = function
                      | None -> ()
                      | Some (iv : Interval.t) ->
                          let lo = max 0 iv.Interval.lo in
                          let hi = min (extent - 1) iv.Interval.hi in
                          if hi >= lo then
                            ranges :=
                              {
                                ptr = Memsim.Ptr.add_bytes p lo;
                                bytes = cap t (hi - lo + 1);
                                kind;
                              }
                              :: !ranges
                    in
                    let a = s.Range_analysis.per_param.(i) in
                    clip `Read a.Range_analysis.read;
                    clip `Write a.Range_analysis.written
                  end
              | _ -> ())
            args;
          dedupe_ranges (List.rev !ranges))

let kernel_ranges t (k : K.t) (args : Kir.Interp.value array) ~grid =
  match t.annotation with
  | Whole -> whole_ranges t k args
  | Precise -> precise_ranges t k args ~grid

let sync_all_streams t =
  (* Acquire in stream-id order, not hash order: each happens_after
     merges a clock into the host fiber, and a hash-order walk makes the
     merge order — and with it downstream epoch values and report text —
     depend on table internals rather than on the program. *)
  List.iter (fun sid -> T.happens_after t.tsan (stream_key sid)) t.tracked

(* Trace a sync-matrix decision: this call was modelled as host
   synchronization against [what ()] (paper, Table I). The label is a
   thunk so untraced runs never format it. *)
let sync_probe call what =
  if Trace.Recorder.on () then
    Trace.Recorder.instant ~cat:"cusan.sync" ~args:[ ("syncs", what ()) ] call

let on_event t phase (ev : D.api_event) =
  match (phase, ev) with
  | D.Pre, D.Stream_create s ->
      ignore (fiber_of t s);
      if is_blocking_user s then t.blocking <- insert s.D.sid t.blocking
  | D.Pre, D.Kernel_launch { kernel; args; stream; grid } ->
      t.counters.Counters.kernels <- t.counters.Counters.kernels + 1;
      if kernel.K.access = None then
        t.counters.Counters.unanalyzed_kernels <-
          t.counters.Counters.unanalyzed_kernels + 1;
      device_op t stream
        ~label:("kernel:" ^ kernel.K.kname)
        ~ranges:(kernel_ranges t kernel args ~grid)
        ~host_syncs:false
  | D.Pre, D.Memcpy { dst; src; bytes; async; stream; modeled_sync; _ } ->
      t.counters.Counters.memcpys <- t.counters.Counters.memcpys + 1;
      device_op t stream
        ~label:(if async then "cudaMemcpyAsync" else "cudaMemcpy")
        ~ranges:
          [
            { ptr = src; bytes; kind = `Read };
            { ptr = dst; bytes; kind = `Write };
          ]
        ~host_syncs:modeled_sync
  | D.Pre, D.Memset { dst; bytes; async; stream; modeled_sync; _ } ->
      t.counters.Counters.memsets <- t.counters.Counters.memsets + 1;
      device_op t stream
        ~label:(if async then "cudaMemsetAsync" else "cudaMemset")
        ~ranges:[ { ptr = dst; bytes; kind = `Write } ]
        ~host_syncs:modeled_sync
  | D.Post, D.Stream_sync s ->
      t.counters.Counters.syncs <- t.counters.Counters.syncs + 1;
      sync_probe "cudaStreamSynchronize" (fun () ->
          Fmt.str "stream#%d" s.D.sid);
      T.happens_after t.tsan (stream_key s.D.sid)
  | D.Post, D.Device_sync ->
      t.counters.Counters.syncs <- t.counters.Counters.syncs + 1;
      sync_probe "cudaDeviceSynchronize" (fun () -> "all-streams");
      sync_all_streams t
  | D.Post, D.Event_sync e ->
      t.counters.Counters.syncs <- t.counters.Counters.syncs + 1;
      sync_probe "cudaEventSynchronize" (fun () -> Fmt.str "event#%d" e.D.eid);
      T.happens_after t.tsan (event_key e.D.eid)
  | D.Pre, D.Event_record { event; stream } ->
      let caller = T.current_fiber t.tsan in
      let f = fiber_of t stream in
      T.switch_to_fiber_sync t.tsan f;
      T.happens_before t.tsan (event_key event.D.eid);
      T.switch_to_fiber t.tsan caller
  | D.Post, D.Stream_wait_event { stream; event } ->
      (* The waiting stream acquires the event and re-publishes on its
         own completion key, so a later host synchronization on this
         stream transitively covers the event's stream. *)
      let caller = T.current_fiber t.tsan in
      let f = fiber_of t stream in
      T.switch_to_fiber t.tsan f;
      T.happens_after t.tsan (event_key event.D.eid);
      T.happens_before t.tsan (stream_key stream.D.sid);
      T.switch_to_fiber t.tsan caller
  | D.Post, D.Stream_query (s, true) ->
      t.counters.Counters.syncs <- t.counters.Counters.syncs + 1;
      sync_probe "cudaStreamQuery=ready" (fun () ->
          Fmt.str "stream#%d" s.D.sid);
      T.happens_after t.tsan (stream_key s.D.sid)
  | D.Post, D.Event_query (e, true) ->
      t.counters.Counters.syncs <- t.counters.Counters.syncs + 1;
      sync_probe "cudaEventQuery=ready" (fun () -> Fmt.str "event#%d" e.D.eid);
      T.happens_after t.tsan (event_key e.D.eid)
  | D.Post, D.Stream_destroy s ->
      t.blocking <- List.filter (fun sid -> sid <> s.D.sid) t.blocking;
      (* Destroy completes outstanding work: host-synchronizing. *)
      sync_probe "cudaStreamDestroy" (fun () -> Fmt.str "stream#%d" s.D.sid);
      T.happens_after t.tsan (stream_key s.D.sid)
  | D.Pre, D.Host_func { stream; label } ->
      (* An ordering point on the stream: the callback runs after all
         prior stream work and blocks later stream work. Its body's own
         accesses execute on a driver thread CuSan does not model. *)
      device_op t stream ~label:("hostFunc:" ^ label) ~ranges:[]
        ~host_syncs:false
  | D.Pre, D.Free { async = false; _ } ->
      (* cudaFree synchronizes the whole device before releasing. *)
      sync_all_streams t
  | _ -> ()

let attach ?(annotation = Whole) ?max_range_bytes ~tsan ~dev () =
  let t =
    {
      tsan;
      dev;
      counters = Counters.create ();
      fibers = Hashtbl.create 8;
      tracked = [];
      blocking =
        List.filter_map
          (fun (s : D.stream) -> if is_blocking_user s then Some s.D.sid else None)
          (D.streams dev);
      host = T.current_fiber tsan;
      annotation;
      max_range_bytes;
    }
  in
  (* The default stream is always tracked (paper, Section IV-A). *)
  ignore (fiber_of t (D.default_stream dev));
  D.add_hook dev (fun phase ev -> on_event t phase ev);
  t

let counters t = t.counters
