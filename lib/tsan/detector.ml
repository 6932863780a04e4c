(* The race detection engine: a FastTrack-style happens-before detector
   offering the subset of the ThreadSanitizer API that MUST and CuSan
   use — fibers, the AnnotateHappensBefore/After pair keyed by an
   address, and tsan_read_range/tsan_write_range.

   One detector instance corresponds to one process under TSan; the MPI
   simulator creates one per rank.

   Range annotations are extent-batched: one region lookup (usually
   resolved by the fiber's last-hit cache), then one walk over the
   shadow pages the extent covers. Pages that are uniform — the common
   case under CuSan's whole-allocation annotations — transition with a
   constant number of epoch comparisons; only pages whose cells have
   diverged fall back to the per-cell FastTrack loop over the arena
   chunk. The page-granular same-epoch skip is sound for the same
   reason FastTrack's per-cell one is: releasing (happens_before,
   fiber_create_inherit, switch_to_fiber_sync) increments the fiber's
   clock component and refreshes its epoch, so an unchanged epoch
   proves the fiber has published nothing since it last owned the
   page.

   Vector-clock slots are recycled, as real TSan reuses the slots of
   finished threads: fiber_retire frees the slot of a fiber whose last
   action was a release, and fiber_spawn hands it to a new fiber once
   the spawning fiber has acquired that final release. The new owner
   starts its component one above the last clock the old owner
   published, so clocks stay as wide as the number of fibers that are
   live or unsynchronized, not the number ever created. *)

type fiber = {
  tid : int;
  name : string;
  vc : Vclock.t;
  start : int; (* own component at creation: 1, or p + 1 on a reused slot *)
  mutable epoch : int; (* cached Epoch.pack tid vc.(tid) *)
  mutable published : int;
      (* own clock published by the last release; -1 before the first
         release and after any access that followed it *)
  mutable retired : bool;
  mutable ctx : string list; (* innermost-first context ("stack") *)
  mutable origin_id : int; (* interned id of the top context; -1 = stale *)
  mutable cache_region : Shadow.region option; (* last-hit region *)
  mutable cache_version : int; (* Shadow.version it was valid for *)
}

type t = {
  mutable fibers : fiber list; (* reverse creation order *)
  main : fiber;
  mutable cur : fiber;
  mutable free_slots : (int * int) list;
      (* retired (tid, last published clock), ascending tid *)
  sync : (int, Vclock.t) Hashtbl.t;
  shadow : Shadow.t;
  counters : Counters.t;
  suppressions : Suppress.t;
  mutable reports : Report.t list; (* reverse detection order *)
  mutable races_total : int; (* including deduplicated / over limit *)
  seen : (string * [ `Read | `Write ] * string * [ `Read | `Write ], unit) Hashtbl.t;
  origins : (string, int) Hashtbl.t;
  mutable origin_names : string array;
  mutable n_origins : int;
  report_limit : int;
  mutable next_tid : int;
  (* Observer of every checked access range, or None (the overwhelmingly
     common case — a plain field test, so the hot path stays flat). The
     schedule explorer installs one to learn which extents each
     scheduling slice touched; it must not call back into the detector. *)
  mutable observer : (kind:[ `Read | `Write ] -> addr:int -> len:int -> unit) option;
}

let refresh_epoch f = f.epoch <- Epoch.pack ~tid:f.tid ~clock:(Vclock.get f.vc f.tid)

let new_fiber ~tid ~start name =
  let vc = Vclock.create () in
  Vclock.set vc tid start;
  let f =
    {
      tid;
      name;
      vc;
      start;
      epoch = 0;
      published = -1;
      retired = false;
      ctx = [];
      origin_id = -1;
      cache_region = None;
      cache_version = -1;
    }
  in
  refresh_epoch f;
  f

let add_fiber t ~tid ~start name =
  let f = new_fiber ~tid ~start name in
  t.fibers <- f :: t.fibers;
  f

let create ?(granule = 8) ?(report_limit = 64) ?(suppressions = []) () =
  let main = new_fiber ~tid:0 ~start:1 "main" in
  {
    fibers = [ main ];
    main;
    cur = main;
    free_slots = [];
    sync = Hashtbl.create 64;
    shadow = Shadow.create ~granule ();
    counters = Counters.create ();
    suppressions = Suppress.of_list suppressions;
    reports = [];
    races_total = 0;
    seen = Hashtbl.create 16;
    origins = Hashtbl.create 64;
    origin_names = Array.make 16 "?";
    n_origins = 0;
    report_limit;
    next_tid = 1;
    observer = None;
  }

(* --- origins -------------------------------------------------------- *)

let intern_origin t s =
  match Hashtbl.find_opt t.origins s with
  | Some i -> i
  | None ->
      let i = t.n_origins in
      if i >= Array.length t.origin_names then begin
        let a = Array.make (2 * Array.length t.origin_names) "?" in
        Array.blit t.origin_names 0 a 0 (Array.length t.origin_names);
        t.origin_names <- a
      end;
      t.origin_names.(i) <- s;
      t.n_origins <- i + 1;
      Hashtbl.replace t.origins s i;
      i

let origin_name t i =
  if i >= 0 && i < t.n_origins then t.origin_names.(i) else "?"

let current_origin t =
  match t.cur.ctx with [] -> t.cur.name | o :: _ -> o

(* The interned id of the current origin, cached on the fiber until the
   context stack changes — range annotations skip the string hashtable
   probe entirely. *)
let origin_id t =
  let cur = t.cur in
  if cur.origin_id >= 0 then cur.origin_id
  else begin
    let id = intern_origin t (current_origin t) in
    cur.origin_id <- id;
    id
  end

(* --- fibers ---------------------------------------------------------- *)

let main_fiber t = t.main

(* The release half of every synchronization: the fiber's clock has just
   been published (into a sync clock or another fiber), so advance its
   own component — later accesses are not covered by what was
   published — and remember the published value for slot recycling. *)
let release f =
  f.published <- Vclock.get f.vc f.tid;
  Vclock.incr f.vc f.tid;
  refresh_epoch f

let fiber_create t name =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  add_fiber t ~tid ~start:1 name

(* Create a fiber that starts ordered after everything the current fiber
   did so far — the semantics of thread creation (pthread_create
   synchronizes parent and child). *)
let fiber_create_inherit t name =
  let f = fiber_create t name in
  Vclock.join f.vc t.cur.vc;
  release t.cur;
  f

let current_fiber t = t.cur

let switch_to_fiber t f =
  (* A fiber switch is not a synchronization (paper, Section II-A). *)
  t.counters.Counters.fiber_switches <- t.counters.Counters.fiber_switches + 1;
  if Trace.Recorder.on () then Trace.Recorder.set_track f.name;
  t.cur <- f

(* Retarget the detector to a different fiber without recording a fiber
   switch or synchronization: used when the *scheduler* moves between
   host threads — a context the application did not create. *)
let activate_fiber t f =
  if Trace.Recorder.on () then Trace.Recorder.set_track f.name;
  t.cur <- f

(* Fiber switch that also orders everything the current fiber did so far
   before the target fiber's subsequent work (release from the source,
   acquire into the target). CuSan and MUST use this when entering the
   fiber of an operation the host just issued: the kernel launch or
   request happens after the host code preceding it. *)
let switch_to_fiber_sync t f =
  t.counters.Counters.fiber_switches <- t.counters.Counters.fiber_switches + 1;
  if Trace.Recorder.on () then Trace.Recorder.set_track f.name;
  let src = t.cur in
  Vclock.join f.vc src.vc;
  release src;
  t.cur <- f

(* Take the lowest retired slot whose final release [vc] has acquired.
   Only clocks up to the published value p ever left the old owner, so
   [vc.(tid) >= p] means [vc] knows the old owner's whole history. *)
let take_slot t vc =
  match List.find_opt (fun (tid, p) -> Vclock.get vc tid >= p) t.free_slots with
  | Some ((tid, _) as slot) ->
      t.free_slots <- List.filter (fun (tid', _) -> tid' <> tid) t.free_slots;
      Some slot
  | None -> None

(* fiber_create followed by switch_to_fiber_sync, on a recycled slot when
   one is eligible. The new owner's component starts at p + 1, above
   every clock the previous owner used or published, so the two never
   share an epoch; everything else it knows comes from the spawner,
   which is ordered after the previous owner's final release. *)
let fiber_spawn t name =
  let f =
    match take_slot t t.cur.vc with
    | Some (tid, p) -> add_fiber t ~tid ~start:(p + 1) name
    | None -> fiber_create t name
  in
  switch_to_fiber_sync t f;
  f

(* Free [f]'s slot for fiber_spawn. A fiber whose last action was an
   access keeps its slot forever: that access's epoch was never
   published, so no later owner could be ordered after it. *)
let fiber_retire t f =
  if f == t.cur then invalid_arg "Tsan.Detector.fiber_retire: current fiber";
  if f == t.main then invalid_arg "Tsan.Detector.fiber_retire: main fiber";
  if f.retired then invalid_arg "Tsan.Detector.fiber_retire: already retired";
  f.retired <- true;
  if f.published >= 0 then
    t.free_slots <- List.merge compare [ (f.tid, f.published) ] t.free_slots

(* Push/pop a context label on the current fiber; stands in for TSan's
   func_entry/func_exit stack tracking. *)
let push_context t label =
  t.cur.ctx <- label :: t.cur.ctx;
  t.cur.origin_id <- -1

let pop_context t =
  match t.cur.ctx with
  | [] -> ()
  | _ :: rest ->
      t.cur.ctx <- rest;
      t.cur.origin_id <- -1

let with_context t label f =
  push_context t label;
  Fun.protect ~finally:(fun () -> pop_context t) f

(* --- synchronization ------------------------------------------------- *)

(* Release: publish the current fiber's clock under [key] and advance
   the fiber's own component so later accesses are not covered. *)
let happens_before t key =
  t.counters.Counters.happens_before <- t.counters.Counters.happens_before + 1;
  let vc =
    match Hashtbl.find_opt t.sync key with
    | Some vc -> vc
    | None ->
        let vc = Vclock.create () in
        Hashtbl.replace t.sync key vc;
        vc
  in
  Vclock.join vc t.cur.vc;
  release t.cur

(* Acquire: the current fiber learns everything published under [key]. *)
let happens_after t key =
  t.counters.Counters.happens_after <- t.counters.Counters.happens_after + 1;
  match Hashtbl.find_opt t.sync key with
  | None -> () (* wait with no prior signal: no-op, like TSan *)
  | Some vc -> Vclock.join t.cur.vc vc

(* --- race reporting -------------------------------------------------- *)

(* Last-K flight-recorder events to embed per fiber in a report. *)
let history_k = 8

(* Recent history for the fibers of a race: the flight recorder's last
   K events on that fiber's track, falling back to the rank's recent
   events when the fiber recorded none of its own — the report then
   still shows what the rank was doing around the access. *)
let fiber_history fibers =
  if not (Trace.Recorder.on ()) then []
  else
    let pid = Trace.Recorder.current_pid () in
    List.map
      (fun name ->
        match Trace.Recorder.recent_lines ~track:name ~pid ~k:history_k () with
        | [] ->
            ( Fmt.str "rank context; fiber '%s' recorded no events" name,
              Trace.Recorder.recent_lines ~pid ~k:history_k () )
        | lines -> (Fmt.str "fiber '%s'" name, lines))
      fibers

(* [count] is the number of cells this race event covers: a uniform page
   reports once for all its cells, but the raw-event tally must match
   the per-cell accounting so extent-level detection stays
   verdict-identical to the per-cell walk. An event whose origin pair
   was already reported is only counted: the dedup key ([Report.dedup_key]
   of the report it would build) is tested before the report is built,
   so a repeat does not symbolize its address, look up the previous
   owner or pull flight-recorder history. *)
let report t ~count ~addr ~granule ~(cur_kind : [ `Read | `Write ]) ~prev_epoch
    ~prev_origin ~(prev_kind : [ `Read | `Write ]) =
  t.races_total <- t.races_total + count;
  let cur_origin = current_origin t and prev_origin = origin_name t prev_origin in
  let key = (cur_origin, cur_kind, prev_origin, prev_kind) in
  if not (Hashtbl.mem t.seen key) then begin
    let prev_fiber =
      (* A recycled slot has had several owners: the epoch belongs to the
         latest one that started at or before its clock. *)
      let tid = Epoch.tid prev_epoch and clock = Epoch.clock prev_epoch in
      match
        List.find_opt (fun f -> f.tid = tid && f.start <= clock) t.fibers
      with
      | Some f -> f.name
      | None -> Fmt.str "fiber#%d" tid
    in
    let r =
      {
        Report.addr;
        bytes = granule;
        current = { Report.fiber = t.cur.name; kind = cur_kind; origin = cur_origin };
        previous = { Report.fiber = prev_fiber; kind = prev_kind; origin = prev_origin };
        location = Report.symbolize addr;
        history =
          fiber_history
            (if prev_fiber = t.cur.name then [ t.cur.name ]
             else [ t.cur.name; prev_fiber ]);
      }
    in
    if not (Suppress.check t.suppressions r) then begin
      Hashtbl.replace t.seen key ();
      if List.length t.reports < t.report_limit then t.reports <- r :: t.reports
    end
  end

(* --- FastTrack core -------------------------------------------------- *)

let cell_addr (region : Shadow.region) i =
  region.Shadow.base + (i * region.Shadow.granule)

(* Write transition of a whole uniform page (every cell identical, full
   extent coverage): the per-cell checks degenerate to one write-write
   and one read-write check against the shared quadruple. *)
let write_uniform t (region : Shadow.region) (u : Shadow.uniform) ~addr0
    ~count ~e ~origin =
  let cur = t.cur in
  let granule = region.Shadow.granule in
  let we = u.Shadow.u_we in
  if not (Epoch.is_none we || Epoch.hb we cur.vc) then
    report t ~count ~addr:addr0 ~granule ~cur_kind:`Write ~prev_epoch:we
      ~prev_origin:u.Shadow.u_wo ~prev_kind:`Write;
  let re = u.Shadow.u_re in
  (if re = Shadow.promoted then begin
     (match u.Shadow.u_rvc with
     | Some rvc ->
         (match Vclock.find_gt rvc cur.vc with
         | Some (rtid, rclk) ->
             report t ~count ~addr:addr0 ~granule ~cur_kind:`Write
               ~prev_epoch:(Epoch.pack ~tid:rtid ~clock:rclk)
               ~prev_origin:u.Shadow.u_ro ~prev_kind:`Read
         | None -> ());
         Shadow.vc_free t.shadow rvc
     | None -> ());
     u.Shadow.u_rvc <- None
   end
   else if not (Epoch.is_none re || Epoch.hb re cur.vc) then
     report t ~count ~addr:addr0 ~granule ~cur_kind:`Write ~prev_epoch:re
       ~prev_origin:u.Shadow.u_ro ~prev_kind:`Read);
  u.Shadow.u_we <- e;
  u.Shadow.u_wo <- origin;
  u.Shadow.u_re <- Epoch.none

(* Per-cell write walk over a materialized page's chunk. Returns whether
   the covered cells all ended in the same {e, none, origin} state, so a
   full-page walk can collapse back to a uniform summary (cells skipped
   on the same-epoch fast path may carry an older read epoch or a
   different origin and veto the collapse). *)
let write_cells t (region : Shadow.region) chunk ~first ~l ~h ~e ~origin =
  let cur = t.cur in
  let granule = region.Shadow.granule in
  let uniform = ref true in
  for i = l to h do
    let o = (i - first) * 4 in
    let we = Array.unsafe_get chunk o in
    if we = e then begin
      if
        Array.unsafe_get chunk (o + 1) <> Epoch.none
        || Array.unsafe_get chunk (o + 2) <> origin
      then uniform := false
    end
    else begin
      (* write-write race? *)
      if not (Epoch.is_none we || Epoch.hb we cur.vc) then
        report t ~count:1 ~addr:(cell_addr region i) ~granule ~cur_kind:`Write
          ~prev_epoch:we
          ~prev_origin:(Array.unsafe_get chunk (o + 2))
          ~prev_kind:`Write;
      (* read-write race? *)
      let re = Array.unsafe_get chunk (o + 1) in
      (if re = Shadow.promoted then (
         match Hashtbl.find_opt region.Shadow.read_vcs i with
         | Some rvc ->
             (match Vclock.find_gt rvc cur.vc with
             | Some (rtid, rclk) ->
                 report t ~count:1 ~addr:(cell_addr region i) ~granule
                   ~cur_kind:`Write
                   ~prev_epoch:(Epoch.pack ~tid:rtid ~clock:rclk)
                   ~prev_origin:(Array.unsafe_get chunk (o + 3))
                   ~prev_kind:`Read
             | None -> ());
             Hashtbl.remove region.Shadow.read_vcs i;
             Shadow.vc_free t.shadow rvc
         | None -> ())
       else if not (Epoch.is_none re || Epoch.hb re cur.vc) then
         report t ~count:1 ~addr:(cell_addr region i) ~granule ~cur_kind:`Write
           ~prev_epoch:re
           ~prev_origin:(Array.unsafe_get chunk (o + 3))
           ~prev_kind:`Read);
      Array.unsafe_set chunk o e;
      Array.unsafe_set chunk (o + 2) origin;
      Array.unsafe_set chunk (o + 1) Epoch.none
    end
  done;
  !uniform

(* Read transition of a whole uniform page. *)
let read_uniform t (region : Shadow.region) (u : Shadow.uniform) ~addr0 ~count
    ~e ~origin =
  let cur = t.cur in
  let granule = region.Shadow.granule in
  (* write-read race? *)
  let we = u.Shadow.u_we in
  if not (Epoch.is_none we || Epoch.hb we cur.vc) then
    report t ~count ~addr:addr0 ~granule ~cur_kind:`Read ~prev_epoch:we
      ~prev_origin:u.Shadow.u_wo ~prev_kind:`Write;
  let re = u.Shadow.u_re in
  if re = Shadow.promoted then begin
    (match u.Shadow.u_rvc with
    | Some rvc -> Vclock.set rvc cur.tid (Vclock.get cur.vc cur.tid)
    | None -> ());
    u.Shadow.u_ro <- origin
  end
  else if Epoch.is_none re || Epoch.hb re cur.vc then begin
    (* exclusive read: replace the epoch *)
    u.Shadow.u_re <- e;
    u.Shadow.u_ro <- origin
  end
  else begin
    (* concurrent reads from several fibers: promote to a shared clock *)
    let rvc = Shadow.vc_alloc t.shadow in
    Vclock.set rvc (Epoch.tid re) (Epoch.clock re);
    Vclock.set rvc cur.tid (Vclock.get cur.vc cur.tid);
    u.Shadow.u_rvc <- Some rvc;
    u.Shadow.u_re <- Shadow.promoted;
    u.Shadow.u_ro <- origin
  end

(* Per-cell read walk. Returns [Some (we, wo, ro)] when every covered
   cell ended with identical write state and read epoch [e], so a
   full-page walk can collapse the page back to a uniform summary. *)
let read_cells t (region : Shadow.region) chunk ~first ~l ~h ~e ~origin =
  let cur = t.cur in
  let granule = region.Shadow.granule in
  let uniform = ref true in
  let cwe = ref 0 and cwo = ref 0 and cro = ref 0 in
  for i = l to h do
    let o = (i - first) * 4 in
    let re = Array.unsafe_get chunk (o + 1) in
    if re <> e then begin
      (* write-read race? *)
      let we = Array.unsafe_get chunk o in
      if not (Epoch.is_none we || Epoch.hb we cur.vc) then
        report t ~count:1 ~addr:(cell_addr region i) ~granule ~cur_kind:`Read
          ~prev_epoch:we
          ~prev_origin:(Array.unsafe_get chunk (o + 2))
          ~prev_kind:`Write;
      if re = Shadow.promoted then begin
        (match Hashtbl.find_opt region.Shadow.read_vcs i with
        | Some rvc -> Vclock.set rvc cur.tid (Vclock.get cur.vc cur.tid)
        | None -> ());
        Array.unsafe_set chunk (o + 3) origin;
        uniform := false
      end
      else if Epoch.is_none re || Epoch.hb re cur.vc then begin
        (* exclusive read: replace the epoch *)
        Array.unsafe_set chunk (o + 1) e;
        Array.unsafe_set chunk (o + 3) origin
      end
      else begin
        (* concurrent reads from several fibers: promote to a clock *)
        let rvc = Shadow.vc_alloc t.shadow in
        Vclock.set rvc (Epoch.tid re) (Epoch.clock re);
        Vclock.set rvc cur.tid (Vclock.get cur.vc cur.tid);
        Hashtbl.replace region.Shadow.read_vcs i rvc;
        Array.unsafe_set chunk (o + 1) Shadow.promoted;
        Array.unsafe_set chunk (o + 3) origin;
        uniform := false
      end
    end
    else if re = Shadow.promoted then uniform := false;
    if i = l then begin
      cwe := Array.unsafe_get chunk o;
      cwo := Array.unsafe_get chunk (o + 2);
      cro := Array.unsafe_get chunk (o + 3)
    end
    else if
      Array.unsafe_get chunk o <> !cwe
      || Array.unsafe_get chunk (o + 2) <> !cwo
      || Array.unsafe_get chunk (o + 3) <> !cro
      || Array.unsafe_get chunk (o + 1) <> e
    then uniform := false
  done;
  if !uniform then Some (!cwe, !cwo, !cro) else None

(* --- ranges ---------------------------------------------------------- *)

(* The region for [addr], resolved through the fiber's last-hit cache
   when the shadow map hasn't changed since (Shadow.version guards
   alloc/free/realloc and wild mappings by other fibers). *)
let region_for t addr =
  let cur = t.cur in
  let v = Shadow.version t.shadow in
  match cur.cache_region with
  | Some r
    when cur.cache_version = v
         && addr lsr Shadow.slot_shift = r.Shadow.base lsr Shadow.slot_shift
         && Shadow.covers r addr ->
      t.counters.Counters.region_cache_hits <-
        t.counters.Counters.region_cache_hits + 1;
      r
  | _ ->
      let r = Shadow.find_or_map t.shadow addr in
      cur.cache_region <- Some r;
      (* find_or_map may itself have mapped a wild region *)
      cur.cache_version <- Shadow.version t.shadow;
      r

(* One shadow walk over the pages covering cells [lo..hi]. *)
let write_extent t (region : Shadow.region) ~lo ~hi ~e ~origin =
  let c = t.counters in
  let p0 = lo lsr Shadow.page_shift and p1 = hi lsr Shadow.page_shift in
  for p = p0 to p1 do
    let first = p lsl Shadow.page_shift in
    let last = Shadow.page_last region p in
    let l = if lo > first then lo else first in
    let h = if hi < last then hi else last in
    let full = l = first && h = last in
    match Shadow.page region p with
    | Shadow.Uniform u when u.Shadow.u_we = e ->
        (* The page is owned by the current epoch: since our last write
           we have released nothing, so there is nothing new to check
           and nothing to update — even under partial coverage. *)
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1
    | Shadow.Untouched when full ->
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1;
        Shadow.set_uniform t.shadow region p ~we:e ~re:Epoch.none ~wo:origin
          ~ro:0
    | Shadow.Uniform u when full ->
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1;
        write_uniform t region u ~addr0:(cell_addr region l) ~count:(h - l + 1)
          ~e ~origin
    | st ->
        let chunk =
          match st with
          | Shadow.Cells chunk -> chunk
          | _ ->
              c.Counters.materialized_pages <-
                c.Counters.materialized_pages + 1;
              Shadow.materialize t.shadow region p
        in
        let collapsible = write_cells t region chunk ~first ~l ~h ~e ~origin in
        if full && collapsible then
          Shadow.collapse t.shadow region p ~we:e ~re:Epoch.none ~wo:origin
            ~ro:0
  done

let read_extent t (region : Shadow.region) ~lo ~hi ~e ~origin =
  let c = t.counters in
  let p0 = lo lsr Shadow.page_shift and p1 = hi lsr Shadow.page_shift in
  for p = p0 to p1 do
    let first = p lsl Shadow.page_shift in
    let last = Shadow.page_last region p in
    let l = if lo > first then lo else first in
    let h = if hi < last then hi else last in
    let full = l = first && h = last in
    match Shadow.page region p with
    | Shadow.Uniform u when u.Shadow.u_re = e ->
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1
    | Shadow.Untouched when full ->
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1;
        Shadow.set_uniform t.shadow region p ~we:Epoch.none ~re:e ~wo:0
          ~ro:origin
    | Shadow.Uniform u when full ->
        c.Counters.uniform_pages <- c.Counters.uniform_pages + 1;
        read_uniform t region u ~addr0:(cell_addr region l) ~count:(h - l + 1)
          ~e ~origin
    | st -> (
        let chunk =
          match st with
          | Shadow.Cells chunk -> chunk
          | _ ->
              c.Counters.materialized_pages <-
                c.Counters.materialized_pages + 1;
              Shadow.materialize t.shadow region p
        in
        match read_cells t region chunk ~first ~l ~h ~e ~origin with
        | Some (we, wo, ro) when full ->
            Shadow.collapse t.shadow region p ~we ~re:e ~wo ~ro
        | _ -> ())
  done

let set_observer t obs = t.observer <- obs

let notify t ~kind ~addr ~len =
  match t.observer with Some f -> f ~kind ~addr ~len | None -> ()

let write_range t ~addr ~len =
  if len > 0 then begin
    notify t ~kind:`Write ~addr ~len;
    t.cur.published <- -1;
    t.counters.Counters.write_ranges <- t.counters.Counters.write_ranges + 1;
    t.counters.Counters.write_bytes <- t.counters.Counters.write_bytes + len;
    let region = region_for t addr in
    let lo, hi = Shadow.cell_range region ~addr ~len in
    let e = t.cur.epoch in
    let origin = origin_id t in
    write_extent t region ~lo ~hi ~e ~origin
  end

let read_range t ~addr ~len =
  if len > 0 then begin
    notify t ~kind:`Read ~addr ~len;
    t.cur.published <- -1;
    t.counters.Counters.read_ranges <- t.counters.Counters.read_ranges + 1;
    t.counters.Counters.read_bytes <- t.counters.Counters.read_bytes + len;
    let region = region_for t addr in
    let lo, hi = Shadow.cell_range region ~addr ~len in
    let e = t.cur.epoch in
    let origin = origin_id t in
    read_extent t region ~lo ~hi ~e ~origin
  end

(* Combined read+write annotation of one extent (a kernel argument with
   RW access): exactly read_range followed by write_range, but with the
   region lookup, clamping and origin interning shared. Counters still
   record one read range and one write range so Table I is unchanged. *)
let rw_range t ~addr ~len =
  if len > 0 then begin
    notify t ~kind:`Read ~addr ~len;
    notify t ~kind:`Write ~addr ~len;
    t.cur.published <- -1;
    let c = t.counters in
    c.Counters.read_ranges <- c.Counters.read_ranges + 1;
    c.Counters.read_bytes <- c.Counters.read_bytes + len;
    c.Counters.write_ranges <- c.Counters.write_ranges + 1;
    c.Counters.write_bytes <- c.Counters.write_bytes + len;
    let region = region_for t addr in
    let lo, hi = Shadow.cell_range region ~addr ~len in
    let e = t.cur.epoch in
    let origin = origin_id t in
    read_extent t region ~lo ~hi ~e ~origin;
    write_extent t region ~lo ~hi ~e ~origin
  end

(* --- allocator interception ------------------------------------------ *)

let on_alloc t ~base ~size = ignore (Shadow.map t.shadow ~base ~size)
let on_free t ~base = Shadow.unmap t.shadow ~base

(* --- results --------------------------------------------------------- *)

let races t = List.rev t.reports
let race_count t = List.length t.reports
let races_total t = t.races_total
let counters t = t.counters
let shadow_bytes t = Shadow.shadow_bytes t.shadow
let shadow_bytes_peak t = Shadow.shadow_bytes_peak t.shadow
let suppressed_count t = Suppress.suppressed_count t.suppressions

let sync_bytes t =
  Hashtbl.fold (fun _ vc acc -> acc + (8 * Vclock.size_words vc)) t.sync 0

let pp_races ppf t =
  match races t with
  | [] -> Fmt.pf ppf "no data races detected"
  | rs ->
      Fmt.pf ppf "@[<v>%a@,== %d race report(s), %d raw race event(s)@]"
        (Fmt.list ~sep:Fmt.cut Report.pp) rs (List.length rs) t.races_total
