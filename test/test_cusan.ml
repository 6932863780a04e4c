(* Tests for CuSan's compiler pass (kernel access analysis, Fig. 8 of
   the paper) and runtime annotation recipe. The central property test
   generates random kernels and checks that the static analysis
   over-approximates the interpreter's actual access footprint. *)

module KA = Cusan.Kernel_analysis
module K = Cudasim.Kernel
module Dev = Cudasim.Device
module T = Tsan.Detector

let summary m entry =
  Array.map
    (fun a ->
      match a with
      | None -> `Scalar
      | Some ({ KA.reads; writes } : KA.access) -> (
          match (reads, writes) with
          | false, false -> `None
          | true, false -> `R
          | false, true -> `W
          | true, true -> `RW))
    (KA.analyze m ~entry)

let check_summary name m entry expect =
  let got = summary m entry in
  Alcotest.(check int) (name ^ " arity") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      let s = function
        | `Scalar -> "scalar" | `None -> "none" | `R -> "r" | `W -> "w" | `RW -> "rw"
      in
      Alcotest.(check string) (Printf.sprintf "%s arg %d" name i) (s e) (s got.(i)))
    expect

(* The paper's Fig. 8: d_a flows into a nested call's written param,
   d_b into a read param. *)
let fig8_nested_call () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "kernel" ]
        [
          func "kernel_nested"
            [ ptr "y"; ptr "x"; scalar "t" ]
            [ store (p 0) (p 2) (load (p 1) (p 2)) ];
          func "kernel" [ ptr "d_a"; ptr "d_b" ]
            [ call "kernel_nested" [ p 0; p 1; tid ] ];
        ])
  in
  check_summary "fig8" m "kernel" [| `W; `R |];
  check_summary "fig8 nested" m "kernel_nested" [| `W; `R; `Scalar |]

let direct_load_store () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [ func "k" [ ptr "a"; ptr "b" ] [ store (p 0) tid (load (p 1) tid) ] ])
  in
  check_summary "direct" m "k" [| `W; `R |]

let read_modify_write () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [ func "k" [ ptr "a" ] [ store (p 0) tid (load (p 0) tid +. f 1.) ] ])
  in
  check_summary "rmw" m "k" [| `RW |]

let untouched_pointer () =
  let m = Kir.Dsl.(modul ~kernels:[ "k" ] [ func "k" [ ptr "a"; ptr "b" ] [ store (p 0) tid (f 0.) ] ]) in
  check_summary "untouched" m "k" [| `W; `None |]

let alias_through_let () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "k" [ ptr "a" ]
            [ let_ "q" (p 0 +@ i 4); store (v "q") tid (f 1.) ];
        ])
  in
  check_summary "alias" m "k" [| `W |]

let alias_joins_branch_bindings () =
  (* %q may point to a or b depending on the branch: both get marked. *)
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "k"
            [ ptr "a"; ptr "b"; scalar "c" ]
            [
              let_ "q" (p 0);
              if_ (p 2) [ let_ "q" (p 1) ] [];
              store (v "q") tid (f 1.);
            ];
        ])
  in
  check_summary "branch alias" m "k" [| `W; `W; `Scalar |]

let access_under_loop_and_if () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "k"
            [ ptr "a"; scalar "n" ]
            [
              for_ "i" (i 0) (p 1)
                [ if_ (v "i" <. i 3) [ store (p 0) (v "i") (f 0.) ] [] ];
            ];
        ])
  in
  check_summary "loop+if" m "k" [| `W; `Scalar |]

let index_loads_count_as_reads () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "k" [ ptr "a"; ptr "idx" ]
            [ store (p 0) (f2i (load (p 1) tid)) (f 1.) ];
        ])
  in
  check_summary "index load" m "k" [| `W; `R |]

let recursion_conservative () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "k" [ ptr "a" ] [ call "k" [ p 0 ] ];
        ])
  in
  match summary m "k" with
  | [| `RW |] | [| `None |] ->
      (* must be sound; RW is what the conservative fallback gives *)
      ()
  | got ->
      Alcotest.failf "recursion: unexpected %d-ary result %s" (Array.length got)
        (match got.(0) with `R -> "r" | `W -> "w" | _ -> "?")

let mutual_recursion_fixpoint () =
  (* f writes its first argument and recurses through g, which reads
     its second: the summary fixpoint must converge to exactly W/R for
     both — a cycle bail-out would degrade everything to RW. *)
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "f" ]
        [
          func "f" [ ptr "a"; ptr "b" ]
            [ store (p 0) (i 0) (f 1.); call "g" [ p 0; p 1 ] ];
          func "g" [ ptr "x"; ptr "y" ]
            [ let_ "t" (load (p 1) (i 0)); call "f" [ p 0; p 1 ] ];
        ])
  in
  check_summary "mutual recursion f" m "f" [| `W; `R |];
  check_summary "mutual recursion g" m "g" [| `W; `R |]

let two_level_call_chain () =
  let m =
    Kir.Dsl.(
      modul ~kernels:[ "top" ]
        [
          func "leaf" [ ptr "x" ] [ store (p 0) (i 0) (f 1.) ];
          func "mid" [ ptr "y" ] [ call "leaf" [ p 0 ] ];
          func "top" [ ptr "z"; ptr "w" ]
            [ call "mid" [ p 0 ]; let_ "r" (load (p 1) (i 0)) ];
        ])
  in
  check_summary "chain" m "top" [| `W; `R |]

let instrument_sets_access () =
  let k =
    K.make
      ~kir:
        Kir.Dsl.(
          ( modul ~kernels:[ "k" ]
              [ func "k" [ ptr "a"; scalar "n" ] [ store (p 0) tid (f 1.) ] ],
            "k" ))
      "k"
  in
  Alcotest.(check bool) "unanalyzed" true (k.K.access = None);
  Cusan.Pass.instrument_kernel k;
  match k.K.access with
  | Some [| Some K.W; None |] -> ()
  | _ -> Alcotest.fail "wrong instrumentation result"

let instrument_rejects_invalid_ir () =
  let k =
    K.make
      ~kir:
        Kir.Dsl.(
          (modul ~kernels:[ "k" ] [ func "k" [ ptr "a" ] [ call "ghost" [] ] ], "k"))
      "k"
  in
  match Cusan.Pass.instrument_kernel k with
  | () -> Alcotest.fail "invalid IR instrumented"
  | exception Kir.Validate.Invalid _ -> ()

(* --- the pass memo ------------------------------------------------------- *)

(* arg0 is read at tid + 1 and written at tid: a must-race the witness
   solver proves, next to a read-only arg1. *)
let racy_module () =
  Kir.Dsl.(
    modul ~kernels:[ "k" ]
      [
        func "k" [ ptr "a"; ptr "b" ]
          [ store (p 0) tid (load (p 0) (tid +. i 1) +. load (p 1) tid) ];
      ])

let instrumented ?prove m =
  let k = K.make ~kir:(m, "k") "k" in
  Cusan.Pass.instrument_kernel ?prove k;
  (k.K.access, k.K.static_races)

(* The memo is keyed by physical identity: a structurally equal copy is
   analyzed on its own and must get the same attributes and races. *)
let pass_memo_copy_agrees () =
  let m = racy_module () in
  let copy : Kir.Ir.modul = Marshal.from_string (Marshal.to_string m []) 0 in
  Alcotest.(check bool) "distinct but equal" true (m != copy && m = copy);
  let first = instrumented m in
  let access, races = first in
  Alcotest.(check bool) "attributes" true (access = Some [| Some K.RW; Some K.R |]);
  Alcotest.(check bool) "a must-race" true
    (match races with Some [ (K.Must_race, _) ] -> true | _ -> false);
  Alcotest.(check bool) "cached = first" true (instrumented m = first);
  Alcotest.(check bool) "copy = first" true (instrumented copy = first)

let pass_memo_never_caches_failure () =
  let m = Kir.Dsl.(modul ~kernels:[ "k" ] [ func "k" [ ptr "a" ] [ call "ghost" [] ] ]) in
  for call = 1 to 3 do
    match instrumented m with
    | _ -> Alcotest.failf "call %d: invalid IR instrumented" call
    | exception Kir.Validate.Invalid _ -> ()
  done

(* Witness replay allocates scratch buffers in the simulated heap, so it
   must run on every call: each call moves the heap's high-water mark. *)
let pass_prove_runs_every_call () =
  let m = racy_module () in
  let run () =
    Memsim.Heap.reset ();
    let r = instrumented ~prove:true m in
    (r, Memsim.Heap.peak_bytes ())
  in
  Fun.protect ~finally:Memsim.Heap.reset @@ fun () ->
  let first, peak1 = run () in
  let second, peak2 = run () in
  Alcotest.(check bool) "proved" true
    (match snd first with Some [ (K.Proved_race, _) ] -> true | _ -> false);
  Alcotest.(check bool) "same verdicts" true (first = second);
  Alcotest.(check bool) "replayed on the first call" true (peak1 > 0);
  Alcotest.(check bool) "replayed on the second call" true (peak2 > 0)

(* --- property: analysis over-approximates real footprints -------------- *)

(* Random kernel generator: params [a: ptr(8 elems); b: ptr(8); n: scalar],
   body of random stores/loads/lets/loops/ifs/calls into a fixed helper. *)
let gen_body =
  let open QCheck.Gen in
  let ptr_expr = oneofl Kir.Dsl.[ p 0; p 1; v "q" ] in
  let idx = oneofl Kir.Dsl.[ tid %. i 8; i 0; i 7; v "j" ] in
  let scalar_expr =
    oneofl Kir.Dsl.[ f 1.; i2f tid; i 3 ]
  in
  let leaf_stmt =
    oneof
      [
        (let* p = ptr_expr and* ix = idx and* v = scalar_expr in
         return (Kir.Dsl.store p ix v));
        (let* p = ptr_expr and* ix = idx in
         return (Kir.Dsl.let_ "s" (Kir.Dsl.load p ix)));
        (let* p = ptr_expr in
         return (Kir.Dsl.let_ "q" p));
        (let* p = ptr_expr and* ix = idx in
         return (Kir.Dsl.call "helper" [ p; ix ]));
      ]
  in
  let rec stmts depth n =
    if n <= 0 then return []
    else
      let* s =
        if depth <= 0 then leaf_stmt
        else
          frequency
            [
              (4, leaf_stmt);
              ( 1,
                let* c = oneofl Kir.Dsl.[ tid <. i 4; i 1; i 0 ]
                and* t = stmts (depth - 1) 2
                and* e = stmts (depth - 1) 2 in
                return (Kir.Dsl.if_ c t e) );
              ( 1,
                let* b = stmts (depth - 1) 2 in
                return (Kir.Dsl.for_ "j" (Kir.Dsl.i 0) (Kir.Dsl.i 3) b) );
            ]
      in
      let* rest = stmts depth (n - 1) in
      return (s :: rest)
  in
  stmts 2 5

let helper_variants =
  (* the helper randomly reads or writes its pointer *)
  Kir.Dsl.
    [
      func "helper" [ ptr "x"; scalar "i" ] [ store (p 0) (p 1 %. i 8) (f 2.) ];
      func "helper" [ ptr "x"; scalar "i" ] [ let_ "t" (load (p 0) (p 1 %. i 8)) ];
    ]

let mk_module helper body =
  Kir.Dsl.(
    modul ~kernels:[ "k" ]
      [
        helper;
        func "k"
          [ ptr "a"; ptr "b"; scalar "n" ]
          (let_ "q" (p 0) :: let_ "j" (i 0) :: let_ "s" (f 0.) :: body);
      ])

let prop_analysis_overapproximates =
  QCheck.Test.make ~name:"analysis over-approximates interpreter footprint"
    ~count:300
    QCheck.(
      make
        ~print:(fun (h, body) ->
          Fmt.str "%a" Kir.Ir.pp_func
            (match (mk_module (List.nth helper_variants h) body).Kir.Ir.funcs with
            | [ _; k ] -> k
            | _ -> assert false))
        Gen.(pair (0 -- 1) gen_body))
    (fun (h, body) ->
      let m = mk_module (List.nth helper_variants h) body in
      Kir.Validate.check_module m;
      let s = KA.analyze m ~entry:"k" in
      (* run and record the real footprint per argument *)
      Memsim.Heap.reset ();
      let a = Memsim.Heap.alloc Memsim.Space.Device 64 in
      let b = Memsim.Heap.alloc Memsim.Space.Device 64 in
      let touched_r = [| false; false |] and touched_w = [| false; false |] in
      let classify ptr =
        if Memsim.Ptr.addr ptr >= Memsim.Ptr.addr b then 1 else 0
      in
      let tracer =
        {
          Kir.Interp.on_read = (fun p ~bytes:_ -> touched_r.(classify p) <- true);
          on_write = (fun p ~bytes:_ -> touched_w.(classify p) <- true);
        }
      in
      Kir.Interp.run_kernel ~tracer m ~name:"k"
        ~args:[| VPtr a; VPtr b; VInt 8 |] ~grid:4;
      Memsim.Heap.reset ();
      let sound i =
        match s.(i) with
        | None -> (not touched_r.(i)) && not touched_w.(i)
        | Some ({ KA.reads; writes } : KA.access) ->
            ((not touched_r.(i)) || reads) && ((not touched_w.(i)) || writes)
      in
      sound 0 && sound 1)

(* --- runtime annotation unit tests -------------------------------------- *)

let with_clean f =
  Memsim.Heap.reset ();
  Typeart.Rt.reset ();
  Typeart.Rt.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Typeart.Rt.set_enabled false;
      Typeart.Rt.reset ();
      Memsim.Heap.reset ())
    f

let setup ?max_range_bytes () =
  let tsan = T.create () in
  let dev = Dev.create () in
  let rt = Cusan.Runtime.attach ?max_range_bytes ~tsan ~dev () in
  (tsan, dev, rt)

let write_kernel () =
  let k =
    K.make
      ~kir:
        Kir.Dsl.(
          ( modul ~kernels:[ "w" ]
              [ func "w" [ ptr "a"; scalar "n" ] [ store (p 0) tid (f 1.) ] ],
            "w" ))
      "w"
  in
  Cusan.Pass.instrument_kernel k;
  k

let launch_then_host_read_races () =
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:16 in
  Dev.launch dev (write_kernel ()) ~grid:16 ~args:[| VPtr buf; VInt 16 |] ();
  T.read_range tsan ~addr:(Memsim.Ptr.addr buf) ~len:8;
  Alcotest.(check bool) "race" true (T.races_total tsan > 0)

let launch_sync_then_read_clean () =
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:16 in
  Dev.launch dev (write_kernel ()) ~grid:16 ~args:[| VPtr buf; VInt 16 |] ();
  Dev.device_synchronize dev;
  T.read_range tsan ~addr:(Memsim.Ptr.addr buf) ~len:8;
  Alcotest.(check int) "clean" 0 (T.races_total tsan)

let host_write_then_launch_clean () =
  (* launch-side ordering: preceding host work happens-before the kernel *)
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let buf = Cudasim.Memory.cuda_malloc_managed dev ~ty:Typeart.Typedb.F64 ~count:16 in
  T.write_range tsan ~addr:(Memsim.Ptr.addr buf) ~len:128;
  Dev.launch dev (write_kernel ()) ~grid:16 ~args:[| VPtr buf; VInt 16 |] ();
  Dev.device_synchronize dev;
  Alcotest.(check int) "clean" 0 (T.races_total tsan)

let unanalyzed_kernel_conservative () =
  with_clean @@ fun () ->
  let tsan, dev, rt = setup () in
  let k = K.make ~native:(fun ~grid:_ _ -> ()) "opaque" in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:8 in
  Dev.launch dev k ~grid:8 ~args:[| VPtr buf |] ();
  (* conservative RW annotation: a host read without sync must race *)
  T.read_range tsan ~addr:(Memsim.Ptr.addr buf) ~len:8;
  Alcotest.(check bool) "race" true (T.races_total tsan > 0);
  Alcotest.(check int) "counted as unanalyzed" 1
    (Cusan.Runtime.counters rt).Cusan.Counters.unanalyzed_kernels

let whole_allocation_annotated () =
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:1024 in
  (* pass an interior pointer; the annotation covers extent from there *)
  let mid = Memsim.Ptr.add buf ~elt:8 512 in
  Dev.launch dev (write_kernel ()) ~grid:16 ~args:[| VPtr mid; VInt 16 |] ();
  let c = T.counters tsan in
  Alcotest.(check int) "bytes = remaining extent" (512 * 8)
    c.Tsan.Counters.write_bytes

let max_range_caps_annotation () =
  with_clean @@ fun () ->
  let tsan, _, _ = setup () in
  ignore tsan;
  let tsan, dev, _ = setup ~max_range_bytes:256 () in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:1024 in
  Dev.launch dev (write_kernel ()) ~grid:16 ~args:[| VPtr buf; VInt 16 |] ();
  Alcotest.(check int) "capped" 256 (T.counters tsan).Tsan.Counters.write_bytes

let counters_per_api () =
  with_clean @@ fun () ->
  let _, dev, rt = setup () in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:8 in
  let h = Cudasim.Memory.host_malloc ~ty:Typeart.Typedb.F64 ~count:8 () in
  let s = Dev.stream_create dev in
  Dev.launch dev (write_kernel ()) ~grid:8 ~args:[| VPtr buf; VInt 8 |] ~stream:s ();
  Cudasim.Memory.memcpy dev ~dst:h ~src:buf ~bytes:64 ();
  Cudasim.Memory.memset dev ~dst:buf ~bytes:64 ~value:0 ();
  Dev.stream_synchronize dev s;
  Dev.device_synchronize dev;
  let e = Dev.event_create dev in
  Dev.event_record dev e s;
  Dev.event_synchronize dev e;
  let c = Cusan.Runtime.counters rt in
  Alcotest.(check int) "streams (default + user)" 2 c.Cusan.Counters.streams;
  Alcotest.(check int) "kernels" 1 c.Cusan.Counters.kernels;
  Alcotest.(check int) "memcpys" 1 c.Cusan.Counters.memcpys;
  Alcotest.(check int) "memsets" 1 c.Cusan.Counters.memsets;
  Alcotest.(check int) "syncs" 3 c.Cusan.Counters.syncs

let cross_stream_without_order_races () =
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let a = Dev.stream_create ~flags:Dev.Non_blocking dev in
  let b = Dev.stream_create ~flags:Dev.Non_blocking dev in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:8 in
  let k = write_kernel () in
  Dev.launch dev k ~grid:8 ~args:[| VPtr buf; VInt 8 |] ~stream:a ();
  Dev.launch dev k ~grid:8 ~args:[| VPtr buf; VInt 8 |] ~stream:b ();
  Alcotest.(check bool) "two unordered streams race" true
    (T.races_total tsan > 0)

let same_stream_sequential_clean () =
  with_clean @@ fun () ->
  let tsan, dev, _ = setup () in
  let s = Dev.stream_create dev in
  let buf = Cudasim.Memory.cuda_malloc dev ~ty:Typeart.Typedb.F64 ~count:8 in
  let k = write_kernel () in
  Dev.launch dev k ~grid:8 ~args:[| VPtr buf; VInt 8 |] ~stream:s ();
  Dev.launch dev k ~grid:8 ~args:[| VPtr buf; VInt 8 |] ~stream:s ();
  Alcotest.(check int) "stream FIFO means no race" 0 (T.races_total tsan)

let tests =
  [
    Alcotest.test_case "Fig. 8 nested call" `Quick fig8_nested_call;
    Alcotest.test_case "direct load/store" `Quick direct_load_store;
    Alcotest.test_case "read-modify-write" `Quick read_modify_write;
    Alcotest.test_case "untouched pointer" `Quick untouched_pointer;
    Alcotest.test_case "alias through let" `Quick alias_through_let;
    Alcotest.test_case "branch alias join" `Quick alias_joins_branch_bindings;
    Alcotest.test_case "access under loop+if" `Quick access_under_loop_and_if;
    Alcotest.test_case "index loads are reads" `Quick index_loads_count_as_reads;
    Alcotest.test_case "recursion conservative" `Quick recursion_conservative;
    Alcotest.test_case "mutual recursion fixpoint" `Quick
      mutual_recursion_fixpoint;
    Alcotest.test_case "two-level call chain" `Quick two_level_call_chain;
    Alcotest.test_case "instrument sets access" `Quick instrument_sets_access;
    Alcotest.test_case "pass memo: equal copy agrees" `Quick pass_memo_copy_agrees;
    Alcotest.test_case "pass memo: failures not cached" `Quick
      pass_memo_never_caches_failure;
    Alcotest.test_case "pass memo: witness replays every call" `Quick
      pass_prove_runs_every_call;
    Alcotest.test_case "instrument validates IR" `Quick
      instrument_rejects_invalid_ir;
    QCheck_alcotest.to_alcotest prop_analysis_overapproximates;
    Alcotest.test_case "launch then host read races" `Quick
      launch_then_host_read_races;
    Alcotest.test_case "launch+sync then read clean" `Quick
      launch_sync_then_read_clean;
    Alcotest.test_case "host write before launch clean" `Quick
      host_write_then_launch_clean;
    Alcotest.test_case "unanalyzed kernel conservative" `Quick
      unanalyzed_kernel_conservative;
    Alcotest.test_case "whole allocation annotated" `Quick
      whole_allocation_annotated;
    Alcotest.test_case "max_range caps annotation" `Quick
      max_range_caps_annotation;
    Alcotest.test_case "counters per API" `Quick counters_per_api;
    Alcotest.test_case "cross-stream unordered races" `Quick
      cross_stream_without_order_races;
    Alcotest.test_case "same stream sequential clean" `Quick
      same_stream_sequential_clean;
  ]

let () = Alcotest.run "cusan" [ ("cusan", tests) ]
