(* MUST's RMA race detection (after Schwitanski et al., "On-the-Fly Data
   Race Detection for MPI RMA Programs with MUST", Correctness 2022 —
   reference [42] of the CuSan paper), adapted to the fiber model:

   - Each one-sided operation is concurrent with both the origin's and
     the target's host execution until the closing fence. Its origin
     buffer access gets a fiber in the *origin's* detector; its window
     access gets a fiber in the *target's* detector (the distributed
     part: the analysis reaches across ranks via the peer resolver).
   - Epoch bookkeeping must respect the collective fence schedule, not
     the simulator's interleaving of hook invocations:
     * entering fence #n (Pre, before blocking) advances the rank's
       fence count to n and publishes the host's state under the
       epoch-n key — so it is available to any peer that already
       completed fence #n;
     * an RMA operation is stamped with its *origin's* fence count n
       (equal on all ranks for the same program point, fences being
       collective); its fiber acquires the target's epoch-n key and
       releases a completion key registered under epoch n;
     * leaving fence #m (Post, after the collective completed — hence
       after every epoch-(m-1) operation was issued and registered)
       acquires exactly the completion keys of epochs < m. Harvesting
       earlier would order in-epoch RMA with local accesses (false
       negatives); harvesting later would leak the ordering the fence
       does establish (false positives).
   - An epoch-m operation must also be ordered after the epoch-(m-1)
     operations on the same target bytes, which fence #m completed.
     Two rules give it that ordering whichever side the simulator
     resumes first after the collective:
     * leaving fence #m releases the epoch-m key again, after the
       harvest, so a target fiber that runs after the target left the
       fence sees the earlier epochs' completions;
     * a target fiber also acquires the target's completion keys of
       epochs below its own that are still pending, which covers a
       target that has not left fence #m yet. They are all registered:
       every origin made its epoch-(m-1) calls before entering fence #m,
       and it makes an epoch-m call only after leaving it.
     Both are sound. The re-release adds only the target host's state
     at the end of fence #m, and that state comes before every epoch-m
     access; the pending keys belong to operations fence #m completed.
   - Accumulates to the same target in the same epoch share one fiber:
     atomic and mutually ordered per the MPI standard (same op), but
     still racing with local accesses and with Put/Get. *)

module T = Tsan.Detector

(* Per-rank RMA bookkeeping, embedded in each MUST runtime instance. *)
type t = {
  pending : (int, (int * int) list ref) Hashtbl.t;
      (* wid -> (epoch, completion key) list awaiting a closing fence *)
  fence_count : (int, int) Hashtbl.t; (* wid -> fences entered *)
  acc_fibers : (int * int, T.fiber * int) Hashtbl.t;
      (* (wid, epoch) -> shared accumulate fiber + its completion key *)
}

let create () =
  {
    pending = Hashtbl.create 4;
    fence_count = Hashtbl.create 4;
    acc_fibers = Hashtbl.create 4;
  }

let epoch_key ~wid ~epoch = 0x5_0000_0000 + (wid lsl 24) + epoch

(* Domain-local and resettable, like the simulator's id counters: keys
   only need to be unique within one run's detector. *)
let next_completion_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () -> 0x6_0000_0000)

let reset_keys () = Domain.DLS.set next_completion_key 0x6_0000_0000

let fresh_key () =
  let k = Domain.DLS.get next_completion_key + 1 in
  Domain.DLS.set next_completion_key k;
  k

let fences_entered t ~wid =
  match Hashtbl.find_opt t.fence_count wid with Some e -> e | None -> 0

let add_pending t ~wid ~epoch key =
  match Hashtbl.find_opt t.pending wid with
  | Some l -> l := (epoch, key) :: !l
  | None -> Hashtbl.replace t.pending wid (ref [ (epoch, key) ])

(* Entering a fence: open epoch #n and publish the host state at its
   start. *)
let on_fence_enter t tsan ~wid =
  let n = fences_entered t ~wid + 1 in
  Hashtbl.replace t.fence_count wid n;
  T.happens_before tsan (epoch_key ~wid ~epoch:n)

(* Leaving fence #m: all RMA of epochs < m is complete here, and the
   epoch-m key now carries that completion to later epoch-m fibers. *)
let on_fence_leave t tsan ~wid =
  let m = fences_entered t ~wid in
  (match Hashtbl.find_opt t.pending wid with
  | Some l ->
      let now, later = List.partition (fun (e, _) -> e < m) !l in
      List.iter (fun (_, k) -> T.happens_after tsan k) now;
      l := later
  | None -> ());
  T.happens_before tsan (epoch_key ~wid ~epoch:m);
  Hashtbl.remove t.acc_fibers (wid, m - 1)

(* Start of an epoch-[epoch] target fiber: after the target's state at
   fence #epoch, and after the earlier epochs' operations that fence
   completed but the target has not harvested yet. *)
let acquire_epoch_start t tsan ~wid ~epoch =
  T.happens_after tsan (epoch_key ~wid ~epoch);
  match Hashtbl.find_opt t.pending wid with
  | Some l ->
      List.iter (fun (e, k) -> if e < epoch then T.happens_after tsan k) !l
  | None -> ()

(* An origin-side buffer access: concurrent with the origin host until
   its next fence (the buffer must not be reused before then). The
   fiber ends with its completion release and is retired, so its clock
   slot is reused once the closing fence has acquired that key. *)
let origin_access t tsan ~wid ~call ~buf ~bytes ~kind =
  let epoch = fences_entered t ~wid in
  let caller = T.current_fiber tsan in
  let f = T.fiber_spawn tsan ("rma:origin:" ^ call) in
  T.with_context tsan call (fun () ->
      let addr = Memsim.Ptr.addr buf in
      match kind with
      | `Read -> T.read_range tsan ~addr ~len:bytes
      | `Write -> T.write_range tsan ~addr ~len:bytes);
  let k = fresh_key () in
  T.happens_before tsan k;
  T.switch_to_fiber tsan caller;
  T.fiber_retire tsan f;
  add_pending t ~wid ~epoch k

(* A window access landing at the target rank, annotated in the target's
   detector: ordered after the target's state at the start of the
   origin's current epoch, completed by the target's closing fence of
   that epoch. Target fibers always take a fresh slot: they do not
   inherit the target host's clock, so a recycled slot would order them
   after its previous owner and could hide a race between two RMA
   accesses. *)
let target_access t tsan ~wid ~epoch ~origin_rank ~call ~ptr ~bytes ~kind =
  let saved = T.current_fiber tsan in
  let f = T.fiber_create tsan (Fmt.str "rma:%s@rank%d" call origin_rank) in
  T.switch_to_fiber tsan f;
  acquire_epoch_start t tsan ~wid ~epoch;
  T.with_context tsan call (fun () ->
      let addr = Memsim.Ptr.addr ptr in
      match kind with
      | `Read -> T.read_range tsan ~addr ~len:bytes
      | `Write -> T.write_range tsan ~addr ~len:bytes);
  let k = fresh_key () in
  T.happens_before tsan k;
  T.switch_to_fiber tsan saved;
  add_pending t ~wid ~epoch k

(* Accumulates share one fiber per (window, epoch) at the target: atomic
   and mutually ordered, but unordered with everything else. *)
let target_accumulate t tsan ~wid ~epoch ~call ~ptr ~bytes =
  let saved = T.current_fiber tsan in
  let f, k =
    match Hashtbl.find_opt t.acc_fibers (wid, epoch) with
    | Some fk -> fk
    | None ->
        let f = T.fiber_create tsan (Fmt.str "rma:accumulate#w%d" wid) in
        let k = fresh_key () in
        T.switch_to_fiber tsan f;
        acquire_epoch_start t tsan ~wid ~epoch;
        T.switch_to_fiber tsan saved;
        Hashtbl.replace t.acc_fibers (wid, epoch) (f, k);
        add_pending t ~wid ~epoch k;
        (f, k)
  in
  T.switch_to_fiber tsan f;
  T.with_context tsan call (fun () ->
      T.write_range tsan ~addr:(Memsim.Ptr.addr ptr) ~len:bytes);
  T.happens_before tsan k;
  T.switch_to_fiber tsan saved
