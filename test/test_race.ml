(* Tests for the static intra-kernel race analysis: the symbolic linear
   forms, the barrier-aware phase splitting, the seeded ground-truth
   corpus, and — the load-bearing property — zero false negatives
   against the interpreter used as an oracle over hundreds of random
   barrier kernels. *)

module L = Cusan.Linform
module I = Cusan.Interval
module RA = Cusan.Race_analysis
module Corpus = Testsuite.Corpus

(* --- linear forms -------------------------------------------------------- *)

let linform_uniform_cancel () =
  (* tid + off vs tid + off: the launch-uniform symbolic part cancels
     under subtraction, which is what proves p[off + tid] race-free
     without knowing off. *)
  let f = L.add L.tid (L.sparam 1) in
  Alcotest.(check (option int)) "difference is exactly 0" (Some 0)
    (L.exact_const (L.sub f f));
  Alcotest.(check bool) "ntid-offset cancels too" true
    (L.exact_const (L.sub (L.add L.tid L.ntid) (L.add L.tid L.ntid)) = Some 0)

let linform_arith () =
  Alcotest.(check (option int)) "const fold" (Some 11)
    (L.exact_const (L.add (L.const 4) (L.const 7)));
  Alcotest.(check bool) "tid stays symbolic" true
    (L.exact_const L.tid = None && not (L.is_top L.tid));
  Alcotest.(check bool) "scale distributes" true
    (L.equal (L.scale 8 (L.add L.tid (L.const 1)))
       (L.add (L.scale 8 L.tid) (L.const 8)));
  Alcotest.(check bool) "tid * scalar param is Top" true
    (L.is_top (L.mul L.tid (L.sparam 0)));
  Alcotest.(check bool) "uniform knows tid" true
    (L.uniform (L.sparam 0) && not (L.uniform L.tid))

let linform_variation_bound () =
  (* A variant interval (a loop counter) admits per-instance variation;
     a launch-uniform unknown does not. The bound w is what separates
     "same unknown value in both instances" from "possibly different". *)
  let iv = I.of_bounds 0 5 in
  (match L.interval ~variant:true iv with
  | L.Lin l -> Alcotest.(check int) "variant width" 5 l.L.w
  | L.Top -> Alcotest.fail "variant interval is not Top");
  match L.interval ~variant:false iv with
  | L.Lin l -> Alcotest.(check int) "uniform unknown has w = 0" 0 l.L.w
  | L.Top -> Alcotest.fail "uniform interval is not Top"

let linform_rem () =
  (* (tid + c) mod m for constant m: non-negative result in [0, m-1],
     but no longer a function of tid alone -> full variation bound. *)
  match L.rem_ (L.add L.tid (L.const 1)) (L.const 4) with
  | L.Lin l ->
      Alcotest.(check bool) "range [0,3]" true
        (I.equal l.L.c (I.of_bounds 0 3) && I.is_const l.L.a);
      Alcotest.(check int) "variation bound 3" 3 l.L.w
  | L.Top -> Alcotest.fail "const modulus should stay bounded"

(* --- corpus classification ----------------------------------------------- *)

let classify (e : Corpus.entry) =
  match Kir.Validate.check_module e.Corpus.m with
  | exception Kir.Validate.Invalid _ -> Corpus.Invalid
  | () ->
      let races = RA.analyze e.Corpus.m ~entry:e.Corpus.entry in
      if RA.has_must races then Corpus.Must
      else if races <> [] then Corpus.May
      else Corpus.Clean

let corpus_classification () =
  List.iter
    (fun (e : Corpus.entry) ->
      Alcotest.(check string)
        (Fmt.str "corpus/%s" e.Corpus.name)
        (Corpus.expect_str e.Corpus.expect)
        (Corpus.expect_str (classify e)))
    Corpus.all

let divergent_barrier_rejected () =
  match Kir.Validate.check_module Corpus.divergent_barrier with
  | () -> Alcotest.fail "tid-divergent barrier accepted"
  | exception Kir.Validate.Invalid msg ->
      let contains sub s =
        let nl = String.length s and sl = String.length sub in
        let rec at i = i + sl <= nl && (String.sub s i sl = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "message names the barrier" true
        (contains "barrier" msg)

let app_suite_must_free () =
  (* The example/app device code must stay free of must-races — the
     same gate `kirlint` and CI enforce. *)
  List.iter
    (fun (m : Kir.Ir.modul) ->
      List.iter
        (fun entry ->
          let races = RA.analyze m ~entry in
          Alcotest.(check bool) (entry ^ " has no must-race") false
            (RA.has_must races))
        m.Kir.Ir.kernels)
    [
      Apps.Jacobi.device_module; Apps.Tealeaf.device_module;
      Apps.Pingpong.fill_src; Testsuite.Cases.device_module;
    ]

(* --- phased interpretation ----------------------------------------------- *)

let with_heap f =
  Memsim.Heap.reset ();
  Fun.protect ~finally:Memsim.Heap.reset f

let dev_alloc n = Memsim.Heap.alloc Memsim.Space.Device (n * 8)

let barrier_wave_semantics () =
  (* q[tid] = p[(tid+1) mod ntid] after a barrier: under wave execution
     every thread sees its neighbor's phase-0 write; under naive
     sequential execution thread t would read p[t+1] before thread t+1
     wrote it (the buffer holds a sentinel, so the difference shows). *)
  with_heap @@ fun () ->
  let grid = 8 in
  let pb = dev_alloc grid and qb = dev_alloc grid in
  for t = 0 to grid - 1 do
    Memsim.Access.raw_set_f64 pb t (-1.)
  done;
  Kir.Interp.run_kernel Corpus.two_phase_barrier ~name:"two_phase_barrier"
    ~args:[| VPtr pb; VPtr qb |] ~grid;
  for t = 0 to grid - 1 do
    Alcotest.(check (float 0.))
      (Fmt.str "q[%d] sees the neighbor's phase-0 write" t)
      (float ((t + 1) mod grid) *. 2.)
      (Memsim.Access.raw_get_f64 qb t)
  done

(* --- oracle property: zero false negatives ------------------------------- *)

(* Random barrier kernels over two f64 buffers. The generator keeps
   index expressions value-independent (no loads feeding indices or
   bounds), so the footprint of a thread is the same under any
   interleaving and a per-thread sequential replay is an exact oracle. *)

let grid = 4
let nelts = 64

type gstmt = Kir.Ir.stmt

let gen_idx ~loopvar : Kir.Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    [
      (3, return Kir.Dsl.tid);
      (2, map (fun c -> Kir.Dsl.i c) (int_range 0 40));
      (3, map (fun c -> Kir.Dsl.(tid +. i c)) (int_range 0 8));
      (1, return Kir.Dsl.(tid *. i 2));
      (1, map (fun c -> Kir.Dsl.((tid +. i c) %. ntid)) (int_range 0 3));
    ]
  in
  frequency
    (if loopvar then (2, return (Kir.Dsl.v "l")) :: base else base)

let gen_value ~loopvar : Kir.Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun x -> Kir.Dsl.f (float_of_int x)) (int_range 0 9));
      (2,
       map2
         (fun b idx -> Kir.Dsl.(load (p b) idx))
         (int_range 0 1) (gen_idx ~loopvar));
      (1, return Kir.Dsl.(i2f tid));
    ]

let gen_store ~loopvar : gstmt QCheck.Gen.t =
  let open QCheck.Gen in
  map3
    (fun b idx v -> Kir.Dsl.store (Kir.Dsl.p b) idx v)
    (int_range 0 1) (gen_idx ~loopvar) (gen_value ~loopvar)

let gen_stmt : gstmt QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (5, gen_store ~loopvar:false);
      (2, return Kir.Dsl.barrier);
      (2,
       map2
         (fun k s -> Kir.Dsl.(if_ (tid ==. i k) [ s ] []))
         (int_range 0 (grid - 1))
         (gen_store ~loopvar:false));
      (1,
       map3
         (fun lo n s -> Kir.Dsl.(for_ "l" (i lo) (i (lo + n)) [ s ]))
         (int_range 0 10) (int_range 1 5) (gen_store ~loopvar:true));
    ]

let gen_kernel : Kir.Ir.modul QCheck.Gen.t =
  let open QCheck.Gen in
  map
    (fun body ->
      Kir.Dsl.(modul ~kernels:[ "k" ] [ func "k" [ ptr "a"; ptr "b" ] body ]))
    (list_size (int_range 2 6) gen_stmt)

let pp_kernel (m : Kir.Ir.modul) =
  Fmt.str "%a" (Fmt.list Kir.Ir.pp_func) m.Kir.Ir.funcs

(* Per-thread phase-tagged footprint, replayed one thread at a time. *)
let thread_footprint m args ~tid =
  let phase = ref 0 in
  let acc = ref [] in
  let record w p ~bytes =
    acc := (!phase, Memsim.Ptr.addr p, bytes, w) :: !acc
  in
  let tracer =
    { Kir.Interp.on_read = record false; on_write = record true }
  in
  Kir.Interp.run_thread ~tracer
    ~on_barrier:(fun () -> incr phase)
    m ~name:"k" ~args ~tid ~ntid:grid;
  !acc

let overlap (a1, n1) (a2, n2) = a1 < a2 + n2 && a2 < a1 + n1

let oracle_has_race footprints =
  let n = Array.length footprints in
  let race = ref false in
  for t = 0 to n - 1 do
    for t' = t + 1 to n - 1 do
      List.iter
        (fun (ph1, a1, n1, w1) ->
          List.iter
            (fun (ph2, a2, n2, w2) ->
              if ph1 = ph2 && (w1 || w2) && overlap (a1, n1) (a2, n2) then
                race := true)
            footprints.(t'))
        footprints.(t)
    done
  done;
  !race

let prop_no_false_negatives =
  QCheck.Test.make
    ~name:"static analysis misses no interpreter-visible intra-kernel race"
    ~count:600
    (QCheck.make ~print:pp_kernel gen_kernel)
    (fun m ->
      Kir.Validate.check_module m;
      with_heap @@ fun () ->
      let args =
        [| Kir.Interp.VPtr (dev_alloc nelts); VPtr (dev_alloc nelts) |]
      in
      let footprints =
        Array.init grid (fun tid -> thread_footprint m args ~tid)
      in
      if oracle_has_race footprints then RA.analyze m ~entry:"k" <> []
      else true)

(* --- launch loop = per-thread replay ----------------------------------- *)

(* The barrier-free launch loop of [run_kernel] (one kernel lookup, no
   effect handler, a fresh frame per thread) must behave
   exactly like running each thread through [run_thread] in tid order:
   same final memory, same tracer event sequence. *)

let rec strip_barriers (s : Kir.Ir.stmt) : Kir.Ir.stmt list =
  match s with
  | Barrier -> []
  | If (c, t, e) -> [ If (c, strip_all t, strip_all e) ]
  | For (v, lo, hi, body) -> [ For (v, lo, hi, strip_all body) ]
  | Store _ | Storei _ | Let _ | Call _ -> [ s ]

and strip_all body = List.concat_map strip_barriers body

let gen_barrier_free_kernel : Kir.Ir.modul QCheck.Gen.t =
  QCheck.Gen.map
    (fun (m : Kir.Ir.modul) ->
      {
        m with
        funcs =
          List.map
            (fun (f : Kir.Ir.func) ->
              { f with body = strip_all f.body })
            m.funcs;
      })
    gen_kernel

(* Final bytes of both buffers and the tracer's (write, addr, bytes)
   events, for one execution strategy on fresh, seeded buffers. *)
let observe run =
  with_heap @@ fun () ->
  let bufs = [ dev_alloc nelts; dev_alloc nelts ] in
  List.iteri
    (fun k p ->
      for i = 0 to nelts - 1 do
        Memsim.Access.raw_set_f64 p i (float_of_int ((k * nelts) + i))
      done)
    bufs;
  let events = ref [] in
  let record w p ~bytes = events := (w, Memsim.Ptr.addr p, bytes) :: !events in
  let tracer = { Kir.Interp.on_read = record false; on_write = record true } in
  run ~tracer (Array.of_list (List.map (fun p -> Kir.Interp.VPtr p) bufs));
  ( List.map
      (fun p -> Bytes.to_string (Memsim.Access.raw_read_bytes p ~bytes:(nelts * 8)))
      bufs,
    List.rev !events )

let prop_launch_loop_matches_threads =
  QCheck.Test.make
    ~name:"barrier-free run_kernel = per-tid run_thread (memory and trace)"
    ~count:300
    (QCheck.make ~print:pp_kernel gen_barrier_free_kernel)
    (fun m ->
      Kir.Validate.check_module m;
      let launched =
        observe (fun ~tracer args ->
            Kir.Interp.run_kernel ~tracer m ~name:"k" ~args ~grid)
      in
      let threaded =
        observe (fun ~tracer args ->
            for tid = 0 to grid - 1 do
              Kir.Interp.run_thread ~tracer m ~name:"k" ~args ~tid ~ntid:grid
            done)
      in
      launched = threaded)

(* --- registration -------------------------------------------------------- *)

let tests =
  [
    Alcotest.test_case "linform: uniform offsets cancel" `Quick
      linform_uniform_cancel;
    Alcotest.test_case "linform: arithmetic" `Quick linform_arith;
    Alcotest.test_case "linform: variation bound" `Quick
      linform_variation_bound;
    Alcotest.test_case "linform: mod const" `Quick linform_rem;
    Alcotest.test_case "corpus classification" `Quick corpus_classification;
    Alcotest.test_case "divergent barrier rejected" `Quick
      divergent_barrier_rejected;
    Alcotest.test_case "app suite must-free" `Quick app_suite_must_free;
    Alcotest.test_case "barrier wave semantics" `Quick barrier_wave_semantics;
    QCheck_alcotest.to_alcotest prop_no_false_negatives;
    QCheck_alcotest.to_alcotest prop_launch_loop_matches_threads;
  ]

let () = Alcotest.run "race" [ ("race-analysis", tests) ]
