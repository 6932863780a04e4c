(* Tests for the FastTrack happens-before detector, its vector clocks,
   epochs, shadow memory, and annotation API. *)

open Tsan

let base = 1 lsl 36 (* a valid region base in the simulated layout *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let detector ?granule ?suppressions () =
  let d = Detector.create ?granule ?suppressions () in
  Detector.on_alloc d ~base ~size:4096;
  d

(* --- vector clocks ---------------------------------------------------- *)

let vclock_basics () =
  let a = Vclock.create () in
  Alcotest.(check int) "unset is 0" 0 (Vclock.get a 5);
  Vclock.set a 2 7;
  Alcotest.(check int) "set/get" 7 (Vclock.get a 2);
  Vclock.incr a 2;
  Alcotest.(check int) "incr" 8 (Vclock.get a 2);
  let b = Vclock.create () in
  Vclock.set b 0 3;
  Vclock.join a b;
  Alcotest.(check int) "join keeps max" 8 (Vclock.get a 2);
  Alcotest.(check int) "join imports" 3 (Vclock.get a 0);
  Alcotest.(check bool) "b <= a" true (Vclock.leq b a);
  Alcotest.(check bool) "a </= b" false (Vclock.leq a b)

let vclock_find_gt () =
  let a = Vclock.create () and b = Vclock.create () in
  Vclock.set a 3 5;
  Vclock.set b 3 5;
  Alcotest.(check bool) "none when leq" true (Vclock.find_gt a b = None);
  Vclock.set a 3 6;
  Alcotest.(check bool) "witness" true (Vclock.find_gt a b = Some (3, 6))

let epoch_pack () =
  let e = Epoch.pack ~tid:17 ~clock:123456 in
  Alcotest.(check int) "tid" 17 (Epoch.tid e);
  Alcotest.(check int) "clock" 123456 (Epoch.clock e);
  Alcotest.(check bool) "none" true (Epoch.is_none Epoch.none)

(* qcheck: join is the least upper bound; leq is a partial order. *)
let clock_gen =
  QCheck.Gen.(
    list_size (1 -- 6) (0 -- 50) >|= fun l ->
    let vc = Vclock.create () in
    List.iteri (fun i x -> Vclock.set vc i x) l;
    vc)

let arb_clock = QCheck.make ~print:(Fmt.to_to_string Vclock.pp) clock_gen

let prop_join_ub =
  QCheck.Test.make ~name:"join is upper bound" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      let j = Vclock.copy a in
      Vclock.join j b;
      Vclock.leq a j && Vclock.leq b j)

let prop_join_least =
  QCheck.Test.make ~name:"join is least upper bound" ~count:300
    (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
      let j = Vclock.copy a in
      Vclock.join j b;
      (* any common upper bound c dominates the join *)
      QCheck.assume (Vclock.leq a c && Vclock.leq b c);
      Vclock.leq j c)

let prop_leq_partial_order =
  QCheck.Test.make ~name:"leq reflexive+transitive" ~count:300
    (QCheck.triple arb_clock arb_clock arb_clock) (fun (a, b, c) ->
      Vclock.leq a a
      && (not (Vclock.leq a b && Vclock.leq b c) || Vclock.leq a c))

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:300
    (QCheck.pair arb_clock arb_clock) (fun (a, b) ->
      let ab = Vclock.copy a in
      Vclock.join ab b;
      let ba = Vclock.copy b in
      Vclock.join ba a;
      Vclock.equal ab ba)

(* --- basic race scenarios --------------------------------------------- *)

let no_race_same_fiber () =
  let d = detector () in
  Detector.write_range d ~addr:base ~len:64;
  Detector.read_range d ~addr:base ~len:64;
  Detector.write_range d ~addr:base ~len:64;
  Alcotest.(check int) "no race" 0 (Detector.races_total d)

let race_two_fibers_ww () =
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "race found" true (Detector.races_total d > 0);
  Alcotest.(check int) "one deduped report" 1 (Detector.race_count d)

let race_write_then_read () =
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.read_range d ~addr:base ~len:8;
  match Detector.races d with
  | [ r ] ->
      Alcotest.(check string) "current fiber" "main" r.Report.current.Report.fiber;
      Alcotest.(check string) "prev fiber" "stream0" r.Report.previous.Report.fiber;
      Alcotest.(check bool) "kinds" true
        (r.Report.current.Report.kind = `Read
        && r.Report.previous.Report.kind = `Write)
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let race_read_then_write () =
  let d = detector () in
  let f = Detector.fiber_create d "mpi_req" in
  Detector.switch_to_fiber d f;
  Detector.read_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "race" true (Detector.races_total d > 0)

let no_race_read_read () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.read_range d ~addr:base ~len:32;
  Detector.switch_to_fiber d f;
  Detector.read_range d ~addr:base ~len:32;
  Alcotest.(check int) "reads don't race" 0 (Detector.races_total d)

let sync_prevents_race () =
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  let key = 0xABC in
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Detector.happens_before d key;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.happens_after d key;
  Detector.read_range d ~addr:base ~len:8;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check int) "synced" 0 (Detector.races_total d)

let sync_wrong_key_still_races () =
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Detector.happens_before d 1;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.happens_after d 2;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "wrong key" true (Detector.races_total d > 0)

let sync_transitive () =
  (* a -> b -> c by two release/acquire pairs: no race between a and c. *)
  let d = detector () in
  let fb = Detector.fiber_create d "b" and fc = Detector.fiber_create d "c" in
  Detector.write_range d ~addr:base ~len:8;
  Detector.happens_before d 10;
  Detector.switch_to_fiber d fb;
  Detector.happens_after d 10;
  Detector.happens_before d 20;
  Detector.switch_to_fiber d fc;
  Detector.happens_after d 20;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check int) "transitive HB" 0 (Detector.races_total d)

let release_then_continue_races () =
  (* Accesses *after* the release are not covered by it. *)
  let d = detector () in
  let f = Detector.fiber_create d "w" in
  Detector.switch_to_fiber d f;
  Detector.happens_before d 5;
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.happens_after d 5;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "post-release access races" true
    (Detector.races_total d > 0)

let ha_without_hb_noop () =
  let d = detector () in
  Detector.happens_after d 999;
  Alcotest.(check int) "no crash, no race" 0 (Detector.races_total d)

let shared_read_promotion () =
  (* Reads from 3 fibers, then an unsynchronized write: race against the
     promoted read vector clock. *)
  let d = detector () in
  let f1 = Detector.fiber_create d "r1" and f2 = Detector.fiber_create d "r2" in
  Detector.read_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d f1;
  Detector.read_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d f2;
  Detector.read_range d ~addr:base ~len:8;
  Alcotest.(check int) "reads alone fine" 0 (Detector.races_total d);
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "write races promoted reads" true
    (Detector.races_total d > 0)

let shared_read_then_synced_write () =
  let d = detector () in
  let f1 = Detector.fiber_create d "r1" and f2 = Detector.fiber_create d "r2" in
  Detector.switch_to_fiber d f1;
  Detector.read_range d ~addr:base ~len:8;
  Detector.happens_before d 1;
  Detector.switch_to_fiber d f2;
  Detector.read_range d ~addr:base ~len:8;
  Detector.happens_before d 2;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.happens_after d 1;
  Detector.happens_after d 2;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check int) "write after all reads synced" 0 (Detector.races_total d)

(* --- ranges and granularity ------------------------------------------ *)

let disjoint_ranges_no_race () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.write_range d ~addr:base ~len:64;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:(base + 64) ~len:64;
  Alcotest.(check int) "disjoint" 0 (Detector.races_total d)

let overlap_one_cell_races () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.write_range d ~addr:base ~len:72;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:(base + 64) ~len:64;
  Alcotest.(check bool) "overlap" true (Detector.races_total d > 0)

let granule_precision () =
  (* With an 8-byte granule, two 4-byte fields in one granule falsely
     collide; with a 4-byte granule they do not. This is the precision
     trade-off the ablation bench quantifies. *)
  let collide granule =
    let d = detector ~granule () in
    let f = Detector.fiber_create d "f" in
    Detector.write_range d ~addr:base ~len:4;
    Detector.switch_to_fiber d f;
    Detector.write_range d ~addr:(base + 4) ~len:4;
    Detector.races_total d > 0
  in
  Alcotest.(check bool) "8B granule collides" true (collide 8);
  Alcotest.(check bool) "4B granule precise" false (collide 4)

let zero_len_noop () =
  let d = detector () in
  Detector.write_range d ~addr:base ~len:0;
  Detector.read_range d ~addr:base ~len:0;
  Alcotest.(check int) "no counters" 0 (Detector.counters d).Counters.write_ranges

let unknown_region_is_mapped () =
  let d = Detector.create () in
  (* No on_alloc: the detector shadows the location on demand. *)
  Detector.write_range d ~addr:(42 lsl 36) ~len:8;
  let f = Detector.fiber_create d "f" in
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:(42 lsl 36) ~len:8;
  Alcotest.(check bool) "still detects" true (Detector.races_total d > 0)

(* Regression: two DISTANT unshadowed addresses falling into the same
   2^36 slot must not alias. The old find_or_map mapped the on-demand
   region at the slot base, so any later wild access in the slot hit
   cell 0 of that region and conflated unrelated locations into phantom
   races. *)
let wild_addresses_do_not_alias () =
  let d = Detector.create () in
  let a = (42 lsl 36) + 0x1000 and b = (42 lsl 36) + 0x9000 in
  Detector.write_range d ~addr:a ~len:8;
  let f = Detector.fiber_create d "f" in
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:b ~len:8;
  Alcotest.(check int) "distinct addresses never race" 0
    (Detector.races_total d);
  (* The same wild address from two fibers must still race. *)
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.write_range d ~addr:b ~len:8;
  Alcotest.(check bool) "same address still races" true
    (Detector.races_total d > 0)

let free_clears_shadow () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.write_range d ~addr:base ~len:8;
  Detector.on_free d ~base;
  Detector.on_alloc d ~base ~size:4096;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check int) "fresh shadow after free" 0 (Detector.races_total d)

(* --- reporting, contexts, suppression -------------------------------- *)

let dedup_many_cells () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.write_range d ~addr:base ~len:1024;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:1024;
  Alcotest.(check bool) "many raw events" true (Detector.races_total d > 10);
  Alcotest.(check int) "one report" 1 (Detector.race_count d)

(* The dedup key is tested before a report is built: 64 raw race events
   with one origin pair symbolize one address, not 64, and the count
   and the report are what building every report gave. *)
let dedup_before_build () =
  let calls = ref 0 in
  Report.set_symbolizer (fun addr ->
      incr calls;
      Some (Printf.sprintf "d_buf+%d" (addr - base)));
  Fun.protect ~finally:(fun () -> Report.set_symbolizer (fun _ -> None))
  @@ fun () ->
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  (* a release between writes gives every cell its own epoch, so the
     page is not uniform and each cell is its own race event *)
  for i = 0 to 63 do
    Detector.write_range d ~addr:(base + (i * 8)) ~len:8;
    Detector.happens_before d 0
  done;
  Detector.switch_to_fiber d f;
  Detector.with_context d "kernel:k" (fun () ->
      Detector.write_range d ~addr:base ~len:512);
  Alcotest.(check int) "one raw event per cell" 64 (Detector.races_total d);
  Alcotest.(check int) "symbolized once" 1 !calls;
  match Detector.races d with
  | [ r ] ->
      Alcotest.(check string) "report text"
        "WARNING: data race at 0x1000000000 (8 bytes)\n\
        \  write of size 8 by fiber 'stream0' in kernel:k\n\
        \  previous write by fiber 'main' in main\n\
        \  location: d_buf+0"
        (Report.to_string r)
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let contexts_in_reports () =
  let d = detector () in
  let f = Detector.fiber_create d "stream" in
  Detector.switch_to_fiber d f;
  Detector.with_context d "kernel:jacobi" (fun () ->
      Detector.write_range d ~addr:base ~len:8);
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.with_context d "MPI_Send" (fun () ->
      Detector.read_range d ~addr:base ~len:8);
  match Detector.races d with
  | [ r ] ->
      Alcotest.(check string) "cur origin" "MPI_Send" r.Report.current.Report.origin;
      Alcotest.(check string) "prev origin" "kernel:jacobi"
        r.Report.previous.Report.origin
  | _ -> Alcotest.fail "expected one report"

let suppression () =
  let d = detector ~suppressions:[ "libfabric" ] () in
  let f = Detector.fiber_create d "f" in
  Detector.with_context d "libfabric_progress" (fun () ->
      Detector.write_range d ~addr:base ~len:8);
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check int) "report suppressed" 0 (Detector.race_count d);
  Alcotest.(check int) "counted" 1 (Detector.suppressed_count d)

let suppressions_file_format () =
  let patterns =
    Tsan.Suppress.parse
      "# TSan suppressions for cluster X\n\
       race:libfabric\n\
       race:ucx_progress\n\
       thread:helper_thread\n\
       \n\
       malformed line\n\
       race:\n"
  in
  Alcotest.(check (list string)) "race rules only"
    [ "libfabric"; "ucx_progress" ] patterns

let counters_track () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.switch_to_fiber d f;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.happens_before d 1;
  Detector.happens_after d 1;
  Detector.read_range d ~addr:base ~len:100;
  Detector.write_range d ~addr:base ~len:200;
  let c = Detector.counters d in
  Alcotest.(check int) "switches" 2 c.Counters.fiber_switches;
  Alcotest.(check int) "hb" 1 c.Counters.happens_before;
  Alcotest.(check int) "ha" 1 c.Counters.happens_after;
  Alcotest.(check int) "read bytes" 100 c.Counters.read_bytes;
  Alcotest.(check int) "write bytes" 200 c.Counters.write_bytes

let shadow_accounting () =
  (* Shadow materializes lazily, on first touch — like real TSan's
     demand-faulted shadow pages. Pages whose cells stay identical are
     priced as uniform summaries, so a full-extent write (the CuSan
     whole-allocation case) costs a summary per page, not 4x the data;
     only the partially-written page pays for a per-cell chunk. *)
  let d = Detector.create ~granule:8 () in
  Alcotest.(check int) "empty" 0 (Detector.shadow_bytes d);
  Detector.on_alloc d ~base ~size:(1 lsl 20);
  Alcotest.(check int) "mapping alone costs nothing" 0 (Detector.shadow_bytes d);
  Detector.write_range d ~addr:base ~len:8;
  let small = Detector.shadow_bytes d in
  Alcotest.(check bool) "one page materialized" true (small > 0 && small <= 8192);
  Detector.write_range d ~addr:base ~len:(1 lsl 20);
  let full = Detector.shadow_bytes d in
  Alcotest.(check bool) "full range stays summary-priced" true
    (full > 0 && full <= (1 lsl 20) / 8);
  Alcotest.(check bool) "peak counted the materialized page" true
    (Detector.shadow_bytes_peak d >= Shadow.page_bytes);
  Detector.on_free d ~base;
  Alcotest.(check int) "released" 0 (Detector.shadow_bytes d);
  Alcotest.(check bool) "peak survives free" true
    (Detector.shadow_bytes_peak d >= full)

(* Regression: shadow_bytes_peak must track page-granular
   materialization exactly — a chunk per diverged page, a summary per
   uniform page, the peak frozen at the worst point. *)
let shadow_page_materialization () =
  let d = Detector.create ~granule:8 () in
  let size = 64 * 1024 in
  Detector.on_alloc d ~base ~size;
  let npages = size / 8 / Shadow.cells_per_page in
  let page_app_bytes = Shadow.cells_per_page * 8 in
  (* Partial writes in three distinct pages materialize three chunks. *)
  List.iter
    (fun p ->
      Detector.write_range d ~addr:(base + (p * page_app_bytes)) ~len:8)
    [ 0; 5; 9 ];
  Alcotest.(check int) "three materialized pages" (3 * Shadow.page_bytes)
    (Detector.shadow_bytes d);
  (* A full-extent write leaves every cell identical: the chunks
     collapse back to summaries and the untouched pages only ever get
     summaries — one per page, nothing else. *)
  Detector.write_range d ~addr:base ~len:size;
  Alcotest.(check int) "all pages uniform" (npages * Shadow.summary_bytes)
    (Detector.shadow_bytes d);
  Alcotest.(check int) "peak was the three chunks" (3 * Shadow.page_bytes)
    (Detector.shadow_bytes_peak d)

(* Regression: the per-fiber last-hit region cache must be invalidated
   by free/realloc. A stale cache would route main's last write into the
   old region's shadow and miss the race against the realloc writer. *)
let region_cache_invalidation () =
  let d = detector () in
  let f = Detector.fiber_create d "f" in
  Detector.write_range d ~addr:base ~len:8 (* main caches the region *);
  Detector.on_free d ~base;
  Detector.on_alloc d ~base ~size:4096;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d (Detector.main_fiber d);
  Detector.write_range d ~addr:base ~len:8;
  Alcotest.(check bool) "race against realloc writer found" true
    (Detector.races_total d > 0)

let report_pp_smoke () =
  let d = detector () in
  let f = Detector.fiber_create d "stream0" in
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d f;
  Detector.write_range d ~addr:base ~len:8;
  let s = Fmt.str "%a" Detector.pp_races d in
  Alcotest.(check bool) "mentions WARNING" true
    (contains s "WARNING: data race")

(* --- FastTrack vs. reference detector on random traces ---------------- *)

(* Reference: record every access with a full vector-clock snapshot and
   compare all conflicting pairs. Slow but obviously correct. *)
module Ref_detector = struct
  type access = { fiber : int; vc : Vclock.t; kind : [ `Read | `Write ] }

  type t = {
    mutable clocks : Vclock.t array;
    sync : (int, Vclock.t) Hashtbl.t;
    accesses : (int, access list ref) Hashtbl.t; (* per cell *)
    mutable cur : int;
    mutable race : bool;
  }

  let create n =
    {
      clocks =
        Array.init n (fun i ->
            let vc = Vclock.create () in
            Vclock.set vc i 1;
            vc);
      sync = Hashtbl.create 8;
      accesses = Hashtbl.create 8;
      cur = 0;
      race = false;
    }

  let switch t f = t.cur <- f

  let hb t key =
    let vc =
      match Hashtbl.find_opt t.sync key with
      | Some vc -> vc
      | None ->
          let vc = Vclock.create () in
          Hashtbl.replace t.sync key vc;
          vc
    in
    Vclock.join vc t.clocks.(t.cur);
    Vclock.incr t.clocks.(t.cur) t.cur

  let ha t key =
    match Hashtbl.find_opt t.sync key with
    | None -> ()
    | Some vc -> Vclock.join t.clocks.(t.cur) vc

  let access t cell kind =
    let l =
      match Hashtbl.find_opt t.accesses cell with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace t.accesses cell l;
          l
    in
    let me =
      { fiber = t.cur; vc = Vclock.copy t.clocks.(t.cur); kind }
    in
    List.iter
      (fun prev ->
        let conflicting = prev.kind = `Write || kind = `Write in
        (* prev happened-before me iff prev.vc.(prev.fiber) <= my knowledge *)
        let ordered =
          Vclock.get prev.vc prev.fiber <= Vclock.get me.vc prev.fiber
        in
        if conflicting && not ordered then t.race <- true)
      !l;
    l := me :: !l
end

type op =
  | Switch of int
  | Hb of int
  | Ha of int
  | Read of int
  | Write of int

let op_gen nf ncells nkeys =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun f -> Switch f) (0 -- (nf - 1)));
        (2, map (fun k -> Hb k) (0 -- (nkeys - 1)));
        (2, map (fun k -> Ha k) (0 -- (nkeys - 1)));
        (3, map (fun c -> Read c) (0 -- (ncells - 1)));
        (3, map (fun c -> Write c) (0 -- (ncells - 1)));
      ])

let show_op = function
  | Switch f -> Printf.sprintf "switch %d" f
  | Hb k -> Printf.sprintf "hb %d" k
  | Ha k -> Printf.sprintf "ha %d" k
  | Read c -> Printf.sprintf "read %d" c
  | Write c -> Printf.sprintf "write %d" c

let prop_fasttrack_vs_reference =
  let nf = 3 and ncells = 4 and nkeys = 3 in
  QCheck.Test.make ~name:"fasttrack agrees with reference on first race"
    ~count:500
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_op l))
       QCheck.Gen.(list_size (0 -- 40) (op_gen nf ncells nkeys)))
    (fun ops ->
      (* FastTrack side *)
      let d = Detector.create ~granule:8 () in
      Detector.on_alloc d ~base ~size:(ncells * 8);
      let fibers =
        Array.init nf (fun i ->
            if i = 0 then Detector.main_fiber d
            else Detector.fiber_create d (Printf.sprintf "f%d" i))
      in
      (* Reference side *)
      let r = Ref_detector.create nf in
      let ft_raced = ref false in
      List.iter
        (fun op ->
          (match op with
          | Switch f ->
              Detector.switch_to_fiber d fibers.(f);
              Ref_detector.switch r f
          | Hb k ->
              Detector.happens_before d k;
              Ref_detector.hb r k
          | Ha k ->
              Detector.happens_after d k;
              Ref_detector.ha r k
          | Read c ->
              Detector.read_range d ~addr:(base + (c * 8)) ~len:8;
              Ref_detector.access r c `Read
          | Write c ->
              Detector.write_range d ~addr:(base + (c * 8)) ~len:8;
              Ref_detector.access r c `Write);
          if Detector.races_total d > 0 then ft_raced := true)
        ops;
      (* FastTrack forgets history on write, so it can miss races the
         reference sees *after the first one*; but whether ANY race
         exists must agree. *)
      !ft_raced = r.Ref_detector.race)

(* --- flat-arena shadow vs. the per-cell oracle ------------------------ *)

(* A faithful port of the previous per-granule implementation: one
   FastTrack check per shadow cell over eager per-region arrays. The
   flat-arena shadow must match it verdict for verdict — not just
   "was there a race" but races_total and the exact report text. *)
module Oracle = struct
  let promoted = -1

  type oregion = {
    obase : int;
    osize : int;
    ogran : int;
    owild : bool;
    w_epoch : int array;
    r_epoch : int array;
    w_origin : string array;
    r_origin : string array;
    read_vcs : (int, Vclock.t) Hashtbl.t;
  }

  type ofiber = {
    otid : int;
    oname : string;
    ovc : Vclock.t;
    mutable oepoch : int;
    mutable octx : string list;
  }

  type t = {
    mutable fibers : ofiber list;
    mutable cur : ofiber;
    sync : (int, Vclock.t) Hashtbl.t;
    regions : (int, oregion list) Hashtbl.t;
    granule : int;
    mutable reports : Report.t list;
    mutable total : int;
    seen :
      (string * [ `Read | `Write ] * string * [ `Read | `Write ], unit)
      Hashtbl.t;
    limit : int;
    mutable next_tid : int;
  }

  let refresh f =
    f.oepoch <- Epoch.pack ~tid:f.otid ~clock:(Vclock.get f.ovc f.otid)

  let make_fiber t name =
    let tid = t.next_tid in
    t.next_tid <- t.next_tid + 1;
    let vc = Vclock.create () in
    Vclock.set vc tid 1;
    let f = { otid = tid; oname = name; ovc = vc; oepoch = 0; octx = [] } in
    refresh f;
    t.fibers <- f :: t.fibers;
    f

  let create () =
    let t =
      {
        fibers = [];
        cur = Obj.magic 0;
        sync = Hashtbl.create 16;
        regions = Hashtbl.create 16;
        granule = 8;
        reports = [];
        total = 0;
        seen = Hashtbl.create 16;
        limit = 64;
        next_tid = 0;
      }
    in
    t.cur <- make_fiber t "main";
    t

  let switch t f = t.cur <- f

  let hb t key =
    let vc =
      match Hashtbl.find_opt t.sync key with
      | Some vc -> vc
      | None ->
          let vc = Vclock.create () in
          Hashtbl.replace t.sync key vc;
          vc
    in
    Vclock.join vc t.cur.ovc;
    Vclock.incr t.cur.ovc t.cur.otid;
    refresh t.cur

  let ha t key =
    match Hashtbl.find_opt t.sync key with
    | None -> ()
    | Some vc -> Vclock.join t.cur.ovc vc

  let push t label = t.cur.octx <- label :: t.cur.octx
  let pop t = match t.cur.octx with [] -> () | _ :: rest -> t.cur.octx <- rest
  let cur_origin t = match t.cur.octx with [] -> t.cur.oname | o :: _ -> o

  let map ?(wild = false) t ~base ~size =
    let n = max 1 ((size + t.granule - 1) / t.granule) in
    let r =
      {
        obase = base;
        osize = size;
        ogran = t.granule;
        owild = wild;
        w_epoch = Array.make n Epoch.none;
        r_epoch = Array.make n Epoch.none;
        w_origin = Array.make n "?";
        r_origin = Array.make n "?";
        read_vcs = Hashtbl.create 4;
      }
    in
    let slot = base lsr 36 in
    let others =
      match Hashtbl.find_opt t.regions slot with
      | None -> []
      | Some rs -> List.filter (fun r -> r.obase <> base) rs
    in
    Hashtbl.replace t.regions slot (r :: others);
    r

  let unmap t ~base =
    let slot = base lsr 36 in
    match Hashtbl.find_opt t.regions slot with
    | None -> ()
    | Some rs -> (
        match List.filter (fun r -> r.obase <> base) rs with
        | [] -> Hashtbl.remove t.regions slot
        | rs' -> Hashtbl.replace t.regions slot rs')

  let covers r addr =
    if r.owild then addr >= r.obase && addr < r.obase + max r.osize r.ogran
    else addr >= r.obase

  let find_or_map t addr =
    let found =
      match Hashtbl.find_opt t.regions (addr lsr 36) with
      | None -> None
      | Some rs -> List.find_opt (fun r -> covers r addr) rs
    in
    match found with
    | Some r -> r
    | None -> map ~wild:true t ~base:(addr - (addr mod t.granule)) ~size:t.granule

  let cell_range r ~addr ~len =
    let lo = (addr - r.obase) / r.ogran in
    let hi = (addr + len - 1 - r.obase) / r.ogran in
    let last = Array.length r.w_epoch - 1 in
    (max 0 (min lo last), max 0 (min hi last))

  let report t ~addr ~cur_kind ~prev_epoch ~prev_origin ~prev_kind =
    t.total <- t.total + 1;
    let prev_fiber =
      match
        List.find_opt (fun f -> f.otid = Epoch.tid prev_epoch) t.fibers
      with
      | Some f -> f.oname
      | None -> Fmt.str "fiber#%d" (Epoch.tid prev_epoch)
    in
    let r =
      {
        Report.addr;
        bytes = t.granule;
        current =
          { Report.fiber = t.cur.oname; kind = cur_kind; origin = cur_origin t };
        previous =
          { Report.fiber = prev_fiber; kind = prev_kind; origin = prev_origin };
        location = Report.symbolize addr;
        history = [];
      }
    in
    let key = Report.dedup_key r in
    if not (Hashtbl.mem t.seen key) then begin
      Hashtbl.replace t.seen key ();
      if List.length t.reports < t.limit then t.reports <- r :: t.reports
    end

  let check_write_hb t r i ~cur_kind =
    let we = r.w_epoch.(i) in
    if not (Epoch.is_none we || Epoch.hb we t.cur.ovc) then
      report t
        ~addr:(r.obase + (i * r.ogran))
        ~cur_kind ~prev_epoch:we ~prev_origin:r.w_origin.(i) ~prev_kind:`Write

  let write_cell t r i ~origin =
    let cur = t.cur in
    let e = cur.oepoch in
    if r.w_epoch.(i) <> e then begin
      check_write_hb t r i ~cur_kind:`Write;
      let re = r.r_epoch.(i) in
      if re = promoted then begin
        (match Hashtbl.find_opt r.read_vcs i with
        | Some rvc -> (
            match Vclock.find_gt rvc cur.ovc with
            | Some (rtid, rclk) ->
                report t
                  ~addr:(r.obase + (i * r.ogran))
                  ~cur_kind:`Write
                  ~prev_epoch:(Epoch.pack ~tid:rtid ~clock:rclk)
                  ~prev_origin:r.r_origin.(i) ~prev_kind:`Read
            | None -> ())
        | None -> ());
        Hashtbl.remove r.read_vcs i
      end
      else if not (Epoch.is_none re || Epoch.hb re cur.ovc) then
        report t
          ~addr:(r.obase + (i * r.ogran))
          ~cur_kind:`Write ~prev_epoch:re ~prev_origin:r.r_origin.(i)
          ~prev_kind:`Read;
      r.w_epoch.(i) <- e;
      r.w_origin.(i) <- origin;
      r.r_epoch.(i) <- Epoch.none
    end

  let read_cell t r i ~origin =
    let cur = t.cur in
    let e = cur.oepoch in
    let re = r.r_epoch.(i) in
    if re <> e then begin
      check_write_hb t r i ~cur_kind:`Read;
      if re = promoted then begin
        (match Hashtbl.find_opt r.read_vcs i with
        | Some rvc -> Vclock.set rvc cur.otid (Vclock.get cur.ovc cur.otid)
        | None -> ());
        r.r_origin.(i) <- origin
      end
      else if Epoch.is_none re || Epoch.hb re cur.ovc then begin
        r.r_epoch.(i) <- e;
        r.r_origin.(i) <- origin
      end
      else begin
        let rvc = Vclock.create () in
        Vclock.set rvc (Epoch.tid re) (Epoch.clock re);
        Vclock.set rvc cur.otid (Vclock.get cur.ovc cur.otid);
        Hashtbl.replace r.read_vcs i rvc;
        r.r_epoch.(i) <- promoted;
        r.r_origin.(i) <- origin
      end
    end

  let write_range t ~addr ~len =
    if len > 0 then begin
      let r = find_or_map t addr in
      let lo, hi = cell_range r ~addr ~len in
      let origin = cur_origin t in
      for i = lo to hi do
        write_cell t r i ~origin
      done
    end

  let read_range t ~addr ~len =
    if len > 0 then begin
      let r = find_or_map t addr in
      let lo, hi = cell_range r ~addr ~len in
      let origin = cur_origin t in
      for i = lo to hi do
        read_cell t r i ~origin
      done
    end

  let races t = List.rev t.reports
end

(* Random traces over the full annotation surface: multi-page ranges,
   overflowing accesses (clamp path), RW kernel arguments, fiber
   switches, contexts, alloc/free/realloc reuse and wild (never
   allocated) addresses. *)
type xop =
  | XSwitch of int
  | XHb of int
  | XHa of int
  | XRead of int * int * int (* slot, offset, length *)
  | XWrite of int * int * int
  | XRw of int * int * int
  | XAlloc of int
  | XFree of int
  | XWildW of int
  | XPush of int
  | XPop

let xbase s = (s + 1) lsl 36
let xsize = 4096 (* 512 cells at granule 8 = 4 shadow pages *)

let xop_gen =
  QCheck.Gen.(
    let slot = 0 -- 1 in
    (* offsets inside the region, near page boundaries, and past the
       end (the clamp path); lengths spanning none, part of a page,
       and multiple pages *)
    let off = frequency [ (4, 0 -- 192); (2, 900 -- 1300); (1, 4000 -- 4500) ] in
    let len = frequency [ (1, return 0); (4, 1 -- 96); (2, 700 -- 2500) ] in
    frequency
      [
        (2, map (fun f -> XSwitch f) (0 -- 2));
        (2, map (fun k -> XHb k) (0 -- 2));
        (2, map (fun k -> XHa k) (0 -- 2));
        (3, map3 (fun s o l -> XRead (s, o, l)) slot off len);
        (3, map3 (fun s o l -> XWrite (s, o, l)) slot off len);
        (2, map3 (fun s o l -> XRw (s, o, l)) slot off len);
        (1, map (fun s -> XAlloc s) slot);
        (1, map (fun s -> XFree s) slot);
        (1, map (fun o -> XWildW o) (0 -- 15));
        (1, map (fun c -> XPush c) (0 -- 2));
        (1, return XPop);
      ])

let show_xop = function
  | XSwitch f -> Printf.sprintf "switch %d" f
  | XHb k -> Printf.sprintf "hb %d" k
  | XHa k -> Printf.sprintf "ha %d" k
  | XRead (s, o, l) -> Printf.sprintf "read %d+%d#%d" s o l
  | XWrite (s, o, l) -> Printf.sprintf "write %d+%d#%d" s o l
  | XRw (s, o, l) -> Printf.sprintf "rw %d+%d#%d" s o l
  | XAlloc s -> Printf.sprintf "alloc %d" s
  | XFree s -> Printf.sprintf "free %d" s
  | XWildW o -> Printf.sprintf "wildw %d" o
  | XPush c -> Printf.sprintf "push %d" c
  | XPop -> "pop"

let prop_flat_arena_matches_oracle =
  QCheck.Test.make ~name:"flat-arena shadow matches per-cell oracle" ~count:300
    ~long_factor:20
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_xop l))
       QCheck.Gen.(list_size (0 -- 60) xop_gen))
    (fun ops ->
      let d = Detector.create ~granule:8 () in
      let dfibers =
        [|
          Detector.main_fiber d;
          Detector.fiber_create d "f1";
          Detector.fiber_create d "f2";
        |]
      in
      let o = Oracle.create () in
      let ofibers =
        [| o.Oracle.cur; Oracle.make_fiber o "f1"; Oracle.make_fiber o "f2" |]
      in
      List.iter
        (fun op ->
          match op with
          | XSwitch f ->
              Detector.switch_to_fiber d dfibers.(f);
              Oracle.switch o ofibers.(f)
          | XHb k ->
              Detector.happens_before d k;
              Oracle.hb o k
          | XHa k ->
              Detector.happens_after d k;
              Oracle.ha o k
          | XRead (s, off, len) ->
              let addr = xbase s + off in
              Detector.read_range d ~addr ~len;
              Oracle.read_range o ~addr ~len
          | XWrite (s, off, len) ->
              let addr = xbase s + off in
              Detector.write_range d ~addr ~len;
              Oracle.write_range o ~addr ~len
          | XRw (s, off, len) ->
              let addr = xbase s + off in
              Detector.rw_range d ~addr ~len;
              (* rw_range is defined as read-then-write of one extent *)
              Oracle.read_range o ~addr ~len;
              Oracle.write_range o ~addr ~len
          | XAlloc s ->
              Detector.on_alloc d ~base:(xbase s) ~size:xsize;
              ignore (Oracle.map o ~base:(xbase s) ~size:xsize)
          | XFree s ->
              Detector.on_free d ~base:(xbase s);
              Oracle.unmap o ~base:(xbase s)
          | XWildW off ->
              let addr = (7 lsl 36) + (off * 24) + 5 in
              Detector.write_range d ~addr ~len:8;
              Oracle.write_range o ~addr ~len:8
          | XPush c ->
              let label = Printf.sprintf "ctx%d" c in
              Detector.push_context d label;
              Oracle.push o label
          | XPop ->
              Detector.pop_context d;
              Oracle.pop o)
        ops;
      Detector.races_total d = o.Oracle.total
      && List.map Report.to_string (Detector.races d)
         = List.map Report.to_string (Oracle.races o))

(* --- fiber lifecycle: recycled clock slots ------------------------------ *)

(* One short-lived fiber the way MUST runs a request: spawned by the
   current fiber, one access, release of its own key, back to the
   spawner, retired. [~recycle:false] is the fresh-slot reference: the
   same fiber from fiber_create + switch_to_fiber_sync, never retired. *)
let request ?(recycle = true) d ~name ~key ~kind ~addr ~len =
  let spawner = Detector.current_fiber d in
  let f =
    if recycle then Detector.fiber_spawn d name
    else begin
      let f = Detector.fiber_create d name in
      Detector.switch_to_fiber_sync d f;
      f
    end
  in
  (match kind with
  | `Read -> Detector.read_range d ~addr ~len
  | `Write -> Detector.write_range d ~addr ~len);
  Detector.happens_before d key;
  Detector.switch_to_fiber d spawner;
  if recycle then Detector.fiber_retire d f

let previous_fibers d =
  List.map (fun r -> r.Report.previous.Report.fiber) (Detector.races d)

let bounded_width () =
  (* 2000 request cycles, each completed before the next starts: one
     recycled slot serves them all, so no clock grows past a few words.
     With a fresh slot per request the 2000 key clocks reach ~16 MB. *)
  let d = detector () in
  for i = 0 to 1999 do
    request d ~name:"req" ~key:(10_000 + i) ~kind:`Write ~addr:base ~len:64;
    Detector.happens_after d (10_000 + i)
  done;
  Alcotest.(check int) "no race" 0 (Detector.races_total d);
  let bytes = Detector.sync_bytes d in
  if bytes >= 2000 * 8 * 16 then
    Alcotest.failf "sync clocks take %d bytes for 2000 keys" bytes

let cross_thread_reuse () =
  (* A slot retired under one host fiber is not handed to a spawn from a
     host fiber that never acquired its final release. *)
  let d = detector () in
  let h2 = Detector.fiber_create d "host2" in
  let x = base and y = base + 512 in
  request d ~name:"req-a" ~key:1 ~kind:`Write ~addr:x ~len:8;
  Detector.happens_after d 1;
  (* reuses req-a's slot: main acquired its release *)
  request d ~name:"req-b" ~key:2 ~kind:`Write ~addr:y ~len:8;
  Detector.switch_to_fiber d h2;
  request d ~name:"req-c" ~key:3 ~kind:`Write ~addr:x ~len:8;
  Detector.write_range d ~addr:y ~len:8;
  Alcotest.(check int) "both writes race" 2 (Detector.races_total d);
  (* each epoch names the owner of the slot at that time *)
  Alcotest.(check (list string)) "previous owners" [ "req-a"; "req-b" ]
    (previous_fibers d)

let reused_slot_still_races () =
  (* host2 knows the old owner's whole history, but not the new owner's:
     the new owner's clock starts above everything host2 has seen. *)
  let d = detector () in
  let main = Detector.main_fiber d and h2 = Detector.fiber_create d "host2" in
  request d ~name:"req-a" ~key:1 ~kind:`Write ~addr:(base + 512) ~len:8;
  Detector.happens_after d 1;
  Detector.happens_before d 9;
  Detector.switch_to_fiber d h2;
  Detector.happens_after d 9;
  Detector.switch_to_fiber d main;
  request d ~name:"req-b" ~key:2 ~kind:`Write ~addr:base ~len:8;
  Detector.switch_to_fiber d h2;
  Detector.read_range d ~addr:base ~len:8;
  Alcotest.(check int) "read races the new owner" 1 (Detector.races_total d);
  Alcotest.(check (list string)) "previous" [ "req-b" ] (previous_fibers d)

let pinned_slot () =
  (* req-a accesses after its last release: that epoch was never
     published, so its slot stays pinned and req-b gets a fresh one. *)
  let d = detector () in
  let main = Detector.main_fiber d in
  let a = Detector.fiber_spawn d "req-a" in
  Detector.happens_before d 1;
  Detector.write_range d ~addr:base ~len:8;
  Detector.switch_to_fiber d main;
  Detector.fiber_retire d a;
  Detector.happens_after d 1;
  request d ~name:"req-b" ~key:2 ~kind:`Write ~addr:base ~len:8;
  Alcotest.(check int) "unpublished write races" 1 (Detector.races_total d);
  Alcotest.(check (list string)) "previous" [ "req-a" ] (previous_fibers d)

let retire_preconditions () =
  let d = detector () in
  let main = Detector.main_fiber d in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "retiring %s did not raise" what
    | exception Invalid_argument _ -> ()
  in
  raises "the main fiber" (fun () -> Detector.fiber_retire d main);
  let f = Detector.fiber_spawn d "req" in
  raises "the current fiber" (fun () -> Detector.fiber_retire d f);
  Detector.switch_to_fiber d main;
  Detector.fiber_retire d f;
  raises "a retired fiber" (fun () -> Detector.fiber_retire d f)

(* Differential property: a detector recycling the slots of retired
   spawned fibers reports exactly what one giving every fiber a fresh
   slot reports (fiber_create + switch_to_fiber_sync, never retired).
   The one permitted difference is the reader named by a write racing a
   promoted read clock: there a new owner's read replaces its
   predecessor's entry, and Vclock.find_gt names the lowest slot. *)
type sop =
  | SSwitch of int
  | SHb of int
  | SHa of int
  | SRead of int * int (* offset, length *)
  | SWrite of int * int
  | SSpawn of [ `Read | `Write ] * int * int
  | SAcquire of int (* the key of the (n+1)-th latest spawn *)

let sop_gen =
  QCheck.Gen.(
    (* single cells, partial pages, and whole pages so uniform pages,
       materialized pages and promoted read clocks all occur *)
    let off = frequency [ (3, 0 -- 40); (2, return 0); (1, 1000 -- 1040) ] in
    let len = frequency [ (3, 1 -- 48); (2, return 2048); (1, 900 -- 1200) ] in
    let kind = oneofl [ `Read; `Write ] in
    frequency
      [
        (2, map (fun h -> SSwitch h) (0 -- 2));
        (1, map (fun k -> SHb k) (0 -- 2));
        (1, map (fun k -> SHa k) (0 -- 2));
        (2, map2 (fun o l -> SRead (o, l)) off len);
        (2, map2 (fun o l -> SWrite (o, l)) off len);
        (4, map3 (fun k o l -> SSpawn (k, o, l)) kind off len);
        (3, map (fun j -> SAcquire j) (0 -- 2));
      ])

let show_sop = function
  | SSwitch h -> Printf.sprintf "switch %d" h
  | SHb k -> Printf.sprintf "hb %d" k
  | SHa k -> Printf.sprintf "ha %d" k
  | SRead (o, l) -> Printf.sprintf "read %d#%d" o l
  | SWrite (o, l) -> Printf.sprintf "write %d#%d" o l
  | SSpawn (k, o, l) ->
      Printf.sprintf "spawn %s %d#%d"
        (match k with `Read -> "read" | `Write -> "write")
        o l
  | SAcquire j -> Printf.sprintf "acquire -%d" j

let spawn_key i = 100 + i

let run_sops ~recycle ops =
  let d = Detector.create ~granule:8 () in
  Detector.on_alloc d ~base ~size:2048;
  let hosts =
    [|
      Detector.main_fiber d;
      Detector.fiber_create d "h1";
      Detector.fiber_create d "h2";
    |]
  in
  let spawned = ref 0 in
  List.iter
    (function
      | SSwitch h -> Detector.switch_to_fiber d hosts.(h)
      | SHb k -> Detector.happens_before d k
      | SHa k -> Detector.happens_after d k
      | SRead (off, len) -> Detector.read_range d ~addr:(base + off) ~len
      | SWrite (off, len) -> Detector.write_range d ~addr:(base + off) ~len
      | SSpawn (kind, off, len) ->
          (* a spawned fiber has no context, so its name is its origin *)
          let name = Printf.sprintf "s%d" !spawned
          and key = spawn_key !spawned in
          incr spawned;
          request ~recycle d ~name ~key ~kind ~addr:(base + off) ~len
      | SAcquire j ->
          if !spawned > 0 then
            Detector.happens_after d
              (spawn_key (!spawned - 1 - (j mod !spawned))))
    ops;
  d

let prop_slot_reuse_matches_fresh_slots =
  QCheck.Test.make ~name:"slot reuse = fresh slots" ~count:500 ~long_factor:20
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_sop l))
       QCheck.Gen.(list_size (0 -- 60) sop_gen))
    (fun ops ->
      let reused = run_sops ~recycle:true ops
      and fresh = run_sops ~recycle:false ops in
      let spawned_reads =
        List.filter_map
          (function
            | SSpawn (kind, off, len) -> Some (kind, off, len) | _ -> None)
          ops
        |> List.mapi (fun i (kind, off, len) ->
               (Printf.sprintf "s%d" i, kind, base + off, len))
      in
      (* did spawned fiber [name] read the cell at [addr]? *)
      let read_by name addr =
        List.exists
          (fun (n, kind, lo, len) ->
            n = name && kind = `Read && addr < lo + len && addr + 8 > lo)
          spawned_reads
      in
      let same (a : Report.t) (b : Report.t) =
        a = b
        || a.Report.current.Report.kind = `Write
           && a.Report.previous.Report.kind = `Read
           && { a with previous = b.Report.previous } = b
           && { a.Report.previous with fiber = b.Report.previous.Report.fiber }
              = b.Report.previous
           && read_by a.Report.previous.Report.fiber a.Report.addr
      in
      let ra = Detector.races reused and rb = Detector.races fresh in
      Detector.races_total reused = Detector.races_total fresh
      && List.map Report.dedup_key ra = List.map Report.dedup_key rb
      && List.for_all2 same ra rb)

let tests =
  [
    Alcotest.test_case "vclock basics" `Quick vclock_basics;
    Alcotest.test_case "vclock find_gt" `Quick vclock_find_gt;
    Alcotest.test_case "epoch pack" `Quick epoch_pack;
    QCheck_alcotest.to_alcotest prop_join_ub;
    QCheck_alcotest.to_alcotest prop_join_least;
    QCheck_alcotest.to_alcotest prop_leq_partial_order;
    QCheck_alcotest.to_alcotest prop_join_commutative;
    Alcotest.test_case "no race same fiber" `Quick no_race_same_fiber;
    Alcotest.test_case "ww race across fibers" `Quick race_two_fibers_ww;
    Alcotest.test_case "write-read race" `Quick race_write_then_read;
    Alcotest.test_case "read-write race" `Quick race_read_then_write;
    Alcotest.test_case "read-read no race" `Quick no_race_read_read;
    Alcotest.test_case "release/acquire prevents race" `Quick sync_prevents_race;
    Alcotest.test_case "wrong key still races" `Quick sync_wrong_key_still_races;
    Alcotest.test_case "transitive sync" `Quick sync_transitive;
    Alcotest.test_case "post-release access races" `Quick
      release_then_continue_races;
    Alcotest.test_case "acquire without release" `Quick ha_without_hb_noop;
    Alcotest.test_case "shared read promotion" `Quick shared_read_promotion;
    Alcotest.test_case "synced write after shared reads" `Quick
      shared_read_then_synced_write;
    Alcotest.test_case "disjoint ranges" `Quick disjoint_ranges_no_race;
    Alcotest.test_case "overlapping ranges" `Quick overlap_one_cell_races;
    Alcotest.test_case "granule precision" `Quick granule_precision;
    Alcotest.test_case "zero length noop" `Quick zero_len_noop;
    Alcotest.test_case "unknown region mapped on demand" `Quick
      unknown_region_is_mapped;
    Alcotest.test_case "wild addresses do not alias" `Quick
      wild_addresses_do_not_alias;
    Alcotest.test_case "free clears shadow" `Quick free_clears_shadow;
    Alcotest.test_case "dedup across cells" `Quick dedup_many_cells;
    Alcotest.test_case "dedup before building the report" `Quick
      dedup_before_build;
    Alcotest.test_case "contexts in reports" `Quick contexts_in_reports;
    Alcotest.test_case "suppressions" `Quick suppression;
    Alcotest.test_case "suppressions file format" `Quick suppressions_file_format;
    Alcotest.test_case "counters" `Quick counters_track;
    Alcotest.test_case "shadow accounting" `Quick shadow_accounting;
    Alcotest.test_case "shadow page materialization" `Quick
      shadow_page_materialization;
    Alcotest.test_case "region cache invalidation" `Quick
      region_cache_invalidation;
    Alcotest.test_case "report pretty-print" `Quick report_pp_smoke;
    QCheck_alcotest.to_alcotest prop_fasttrack_vs_reference;
    QCheck_alcotest.to_alcotest prop_flat_arena_matches_oracle;
    Alcotest.test_case "bounded clock width" `Quick bounded_width;
    Alcotest.test_case "cross-thread slot reuse" `Quick cross_thread_reuse;
    Alcotest.test_case "reused slot still races" `Quick reused_slot_still_races;
    Alcotest.test_case "pinned slot" `Quick pinned_slot;
    Alcotest.test_case "retire preconditions" `Quick retire_preconditions;
    QCheck_alcotest.to_alcotest prop_slot_reuse_matches_fresh_slots;
  ]

let () = Alcotest.run "tsan" [ ("tsan", tests) ]
