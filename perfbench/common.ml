(* Shared plumbing of the workloads: the closed measurement loop, the
   seeded input order, process memory, and the result records every
   workload returns. *)

(* Monotonic clock with nanosecond resolution, in seconds: per-case
   latencies are tens of microseconds, where a microsecond clock would
   quantize a median into the same value run after run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Latency samples: every sample up to the capacity, then a uniform
   reservoir (Algorithm R). Memory stays bounded, so a faster system
   that fits more operations into a run does not grow the benchmark's
   own resident set, which [peak_rss_mb] would otherwise report. *)
type reservoir = { buf : Float.Array.t; mutable seen : int; rng : Random.State.t }

let reservoir cap =
  { buf = Float.Array.make cap 0.; seen = 0; rng = Random.State.make [| 17 |] }

let sample r x =
  let cap = Float.Array.length r.buf in
  (if r.seen < cap then Float.Array.set r.buf r.seen x
   else
     let j = Random.State.int r.rng (r.seen + 1) in
     if j < cap then Float.Array.set r.buf j x);
  r.seen <- r.seen + 1

let samples r = List.init (min r.seen (Float.Array.length r.buf)) (Float.Array.get r.buf)

(* The measured window of a run, cut into consecutive slices of at
   least [slice_s]. Each slice records its throughput and its median
   latency. The reported metrics take the fastest decile of slices: the
   noise of a shared machine is one-sided (co-tenants only ever slow a
   slice down, for spells of seconds to minutes), so the best slices
   estimate the system's own speed and a slow spell covering most of a
   run moves them little. *)
let slice_s = 0.5

type meter = {
  all : reservoir;
  cur : reservoir;
  mutable timed : int;
  mutable s_start : float;
  mutable s_units : int;
  mutable slices : (float * float) list;  (** (units/s, median s), newest first *)
  t_start : float;
  mutable t_end : float;
}

let meter () =
  let t = now () in
  {
    all = reservoir 20_000;
    cur = reservoir 4096;
    timed = 0;
    s_start = t;
    s_units = 0;
    slices = [];
    t_start = t;
    t_end = t;
  }

let close_slice m t =
  if m.s_units > 0 then
    m.slices <-
      (float m.s_units /. (t -. m.s_start), Stats.median (samples m.cur)) :: m.slices;
  m.cur.seen <- 0;
  m.s_units <- 0;
  m.s_start <- t

(* One operation of [units] units that ran from [t0] to [t1]; its time
   is split evenly over its units. *)
let record m ~t0 ~t1 ~units =
  let per = (t1 -. t0) /. float (max 1 units) in
  for _ = 1 to units do
    sample m.all per;
    sample m.cur per
  done;
  m.timed <- m.timed + units;
  m.s_units <- m.s_units + units;
  m.t_end <- t1;
  if t1 -. m.s_start >= slice_s then close_slice m t1

(* Outcome of one measured (untraced) run. [units] counts every unit
   attempted, warm-up included; [timed] the units inside the measured
   window; [lats] samples their latencies (seconds); [slices] holds
   each slice's throughput and median latency. *)
type measured = {
  units : int;
  failed : int;
  timed : int;
  lats : float list;
  slices : (float * float) list;
  rss_mb : float;  (** peak resident set of the measured process *)
  notes : string list;
}

(* Outcome of one profiled run: per-layer values by metric name; names
   a workload does not reach are reported as 0 by the caller. *)
type profiled = {
  p_attempted : int;
  p_failed : int;
  values : (string * float) list;
  p_notes : string list;
  spans : Trace.Event.t list;  (** kept spans, for a Chrome trace *)
}

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let path = Fmt.str "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> Option.map (fun k -> float k /. 1024.) (int_of_string_opt kb)
                 | [] -> None)
             | _ -> None)
      |> Option.value ~default:nan

let self_rss_mb () = peak_rss_mb "self"

(* Deterministic Fisher-Yates shuffle from the workload seed. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* An endless seeded stream over [xs]: each pass is a fresh
   permutation, so every element recurs at the same rate while the
   order changes with the seed. *)
let cycle rng xs =
  let q = ref [] in
  fun () ->
    (match !q with [] -> q := shuffle rng xs | _ -> ());
    match !q with
    | x :: rest ->
        q := rest;
        x
    | [] -> invalid_arg "cycle: empty input"

(* Untimed warm-up: the first operations of a process run slower while
   the heap grows and caches fill, a cost users pay once, not per
   operation. *)
let warmup_s = 1.0

let warm_up f =
  let until = now () +. warmup_s in
  f ();
  while now () < until do
    f ()
  done

(* Closed loop: after the warm-up, run [step] back to back until
   [seconds] have passed. [step ()] returns the units of work it
   completed and how many of them failed their oracle. Warm-up units
   count as attempted (and failed) but are not timed. *)
let closed_loop ~seconds step =
  let units = ref 0 and failed = ref 0 in
  let count (u, bad) =
    units := !units + u;
    failed := !failed + bad
  in
  let warm = now () +. warmup_s in
  count (step ());
  while now () < warm do
    count (step ())
  done;
  let m = meter () in
  let deadline = m.t_start +. seconds in
  while m.timed = 0 || now () < deadline do
    let t0 = now () in
    let u, bad = step () in
    let t1 = now () in
    count (u, bad);
    record m ~t0 ~t1 ~units:u
  done;
  (!units, !failed, m)

(* Remember distinct problem lines, however often an operation fails. *)
let remember notes ps =
  List.iter (fun n -> if not (List.mem n !notes) then notes := n :: !notes) ps

let measured ?(notes = []) ?(rss_mb = self_rss_mb ()) (units, failed, (m : meter)) =
  (* a trailing slice shorter than half a slice would weigh a fraction
     of a second like a full one *)
  if m.slices = [] || m.t_end -. m.s_start >= slice_s /. 2. then close_slice m m.t_end;
  {
    units;
    failed;
    timed = m.timed;
    lats = samples m.all;
    slices = List.rev m.slices;
    rss_mb;
    notes;
  }

type gc = { minor : float; major : float; collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    collections = s.Gc.major_collections;
  }

let gc_zero = { minor = 0.; major = 0.; collections = 0 }

(* Run [f], adding the collector's work during it to [acc]. *)
let with_gc acc f =
  let a = gc_now () in
  let r = f () in
  let b = gc_now () in
  acc :=
    {
      minor = !acc.minor +. b.minor -. a.minor;
      major = !acc.major +. b.major -. a.major;
      collections = !acc.collections + b.collections - a.collections;
    };
  r

let gc_values ~per g =
  [
    ("gc.minor_mw", g.minor /. 1e6 /. per);
    ("gc.major_mw", g.major /. 1e6 /. per);
    ("gc.major_collections", float g.collections /. per);
  ]

(* Rank-0 detector counters (the Table I view) summed over traced runs,
   reported per run. *)
let tsan_values ~per (c : Tsan.Counters.t) =
  let f x = float x /. per in
  let ranges = c.Tsan.Counters.read_ranges + c.Tsan.Counters.write_ranges in
  [
    ("tsan.uniform_pages", f c.Tsan.Counters.uniform_pages);
    ("tsan.materialized_pages", f c.Tsan.Counters.materialized_pages);
    ("tsan.hb", f c.Tsan.Counters.happens_before);
    ("tsan.ha", f c.Tsan.Counters.happens_after);
    ("tsan.fiber_switches", f c.Tsan.Counters.fiber_switches);
    ( "tsan.region_cache_hit_ratio",
      if ranges = 0 then 0. else float c.Tsan.Counters.region_cache_hits /. float ranges );
  ]

(* Trace overhead: traced against untraced median time per unit. *)
let overhead_pct ~traced ~untraced =
  if untraced <= 0. then 0. else ((traced /. untraced) -. 1.) *. 100.
