(* Unit tests for the kernel IR: builder, validator, interpreter. *)

open Kir

let with_heap f =
  Memsim.Heap.reset ();
  Fun.protect ~finally:Memsim.Heap.reset f

let dev_alloc n = Memsim.Heap.alloc Memsim.Space.Device (n * 8)

let run m name args grid = Interp.run_kernel m ~name ~args ~grid

(* --- validator ---------------------------------------------------------- *)

let simple_module body =
  Dsl.(modul ~kernels:[ "k" ] [ func "k" [ ptr "a"; scalar "n" ] body ])

let validate_ok () =
  Validate.check_module
    (simple_module Dsl.[ if_ (tid <. p 1) [ store (p 0) tid (f 1.) ] [] ])

let validate_unbound_local () =
  match Validate.check_module (simple_module Dsl.[ store (p 0) tid (v "nope") ]) with
  | () -> Alcotest.fail "unbound local accepted"
  | exception Validate.Invalid _ -> ()

let validate_param_range () =
  match Validate.check_module (simple_module Dsl.[ store (p 5) tid (f 0.) ]) with
  | () -> Alcotest.fail "out-of-range param accepted"
  | exception Validate.Invalid _ -> ()

let validate_store_to_scalar () =
  match Validate.check_module (simple_module Dsl.[ store (p 1) tid (f 0.) ]) with
  | () -> Alcotest.fail "store to scalar accepted"
  | exception Validate.Invalid _ -> ()

let validate_pointer_arith_in_binop () =
  match
    Validate.check_module (simple_module Dsl.[ store (p 0) (p 0 +. i 1) (f 0.) ])
  with
  | () -> Alcotest.fail "pointer in binop accepted"
  | exception Validate.Invalid _ -> ()

let validate_storing_pointer () =
  match Validate.check_module (simple_module Dsl.[ store (p 0) tid (p 0) ]) with
  | () -> Alcotest.fail "storing a pointer accepted"
  | exception Validate.Invalid _ -> ()

let validate_undefined_callee () =
  match Validate.check_module (simple_module Dsl.[ call "ghost" [] ]) with
  | () -> Alcotest.fail "call to undefined function accepted"
  | exception Validate.Invalid _ -> ()

let validate_arity () =
  let m =
    Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "helper" [ ptr "x" ] [];
          func "k" [ ptr "a"; scalar "n" ] [ call "helper" [ p 0; p 1 ] ];
        ])
  in
  match Validate.check_module m with
  | () -> Alcotest.fail "arity mismatch accepted"
  | exception Validate.Invalid _ -> ()

let validate_arg_type_mismatch () =
  let m =
    Dsl.(
      modul ~kernels:[ "k" ]
        [
          func "helper" [ ptr "x" ] [];
          func "k" [ ptr "a"; scalar "n" ] [ call "helper" [ p 1 ] ];
        ])
  in
  match Validate.check_module m with
  | () -> Alcotest.fail "scalar-for-pointer accepted"
  | exception Validate.Invalid _ -> ()

let validate_duplicate_function () =
  let m =
    Dsl.(modul ~kernels:[] [ func "f" [] []; func "f" [ ptr "a" ] [] ])
  in
  match Validate.check_module m with
  | () -> Alcotest.fail "duplicate function accepted"
  | exception Validate.Invalid _ -> ()

let validate_missing_kernel () =
  let m = Dsl.(modul ~kernels:[ "ghost" ] [ func "f" [] [] ]) in
  match Validate.check_module m with
  | () -> Alcotest.fail "missing kernel accepted"
  | exception Validate.Invalid _ -> ()

let validate_loop_var_is_scalar () =
  Validate.check_module
    (simple_module
       Dsl.[ for_ "i" (i 0) (p 1) [ store (p 0) (v "i") (i2f (v "i")) ] ])

(* --- interpreter --------------------------------------------------------- *)

let interp_store_per_tid () =
  with_heap @@ fun () ->
  let a = dev_alloc 8 in
  let m = simple_module Dsl.[ if_ (tid <. p 1) [ store (p 0) tid (i2f (tid *. i 3)) ] [] ] in
  run m "k" [| VPtr a; VInt 8 |] 8;
  for t = 0 to 7 do
    Alcotest.(check (float 0.)) "a[t]=3t" (float (3 * t)) (Memsim.Access.raw_get_f64 a t)
  done

let interp_arith () =
  with_heap @@ fun () ->
  let a = dev_alloc 8 in
  let m =
    simple_module
      Dsl.
        [
          let_ "x" (f 10. /. f 4.);
          let_ "y" (i 10 /. i 4);
          store (p 0) (i 0) (v "x");
          store (p 0) (i 1) (i2f (v "y"));
          store (p 0) (i 2) (i2f (i 10 %. i 4));
          store (p 0) (i 3) (fmin (f 1.5) (f 2.5));
          store (p 0) (i 4) (fmax (f 1.5) (f 2.5));
          store (p 0) (i 5) (neg (f 7.));
          store (p 0) (i 6) (i2f ((i 1 <. i 2) &&. (i 2 <=. i 2)));
          store (p 0) (i 7) (i2f ((i 1 ==. i 2) ||. (i 3 <. i 2)));
        ]
  in
  run m "k" [| VPtr a; VInt 8 |] 1;
  let got i = Memsim.Access.raw_get_f64 a i in
  Alcotest.(check (float 0.)) "float div" 2.5 (got 0);
  Alcotest.(check (float 0.)) "int div" 2. (got 1);
  Alcotest.(check (float 0.)) "mod" 2. (got 2);
  Alcotest.(check (float 0.)) "min" 1.5 (got 3);
  Alcotest.(check (float 0.)) "max" 2.5 (got 4);
  Alcotest.(check (float 0.)) "neg" (-7.) (got 5);
  Alcotest.(check (float 0.)) "and of cmps" 1. (got 6);
  Alcotest.(check (float 0.)) "or of cmps" 0. (got 7)

let interp_loop_sum () =
  with_heap @@ fun () ->
  let a = dev_alloc 1 in
  let m =
    simple_module
      Dsl.
        [
          store (p 0) (i 0) (f 0.);
          for_ "i" (i 1) (i 11)
            [ store (p 0) (i 0) (load (p 0) (i 0) +. i2f (v "i")) ];
        ]
  in
  run m "k" [| VPtr a; VInt 1 |] 1;
  Alcotest.(check (float 0.)) "sum 1..10" 55. (Memsim.Access.raw_get_f64 a 0)

let interp_nested_call () =
  with_heap @@ fun () ->
  let y = dev_alloc 4 and x = dev_alloc 4 in
  (* the paper's Fig. 8 example: kernel_nested(y, x, tid) { y[tid] = x[tid] } *)
  let m =
    Dsl.(
      modul ~kernels:[ "kernel" ]
        [
          func "kernel_nested"
            [ ptr "y"; ptr "x"; scalar "t" ]
            [ store (p 0) (p 2) (load (p 1) (p 2)) ];
          func "kernel" [ ptr "d_a"; ptr "d_b" ] [ call "kernel_nested" [ p 0; p 1; tid ] ];
        ])
  in
  for t = 0 to 3 do
    Memsim.Access.raw_set_f64 x t (float (t * t))
  done;
  run m "kernel" [| VPtr y; VPtr x |] 4;
  for t = 0 to 3 do
    Alcotest.(check (float 0.)) "copied" (float (t * t)) (Memsim.Access.raw_get_f64 y t)
  done

let interp_ptradd () =
  with_heap @@ fun () ->
  let a = dev_alloc 8 in
  let m = simple_module Dsl.[ store (p 0 +@ i 4) tid (f 9.) ] in
  run m "k" [| VPtr a; VInt 1 |] 1;
  Alcotest.(check (float 0.)) "offset store" 9. (Memsim.Access.raw_get_f64 a 4)

let interp_i32 () =
  with_heap @@ fun () ->
  let a = Memsim.Heap.alloc Memsim.Space.Device 32 in
  let m = simple_module Dsl.[ storei (p 0) tid (tid *. i 5) ] in
  run m "k" [| VPtr a; VInt 8 |] 8;
  Alcotest.(check int) "i32 store" 15 (Memsim.Access.raw_get_i32 a 3)

let interp_device_fault () =
  with_heap @@ fun () ->
  let h = Memsim.Heap.alloc Memsim.Space.Host_pageable 64 in
  let m = simple_module Dsl.[ store (p 0) tid (f 1.) ] in
  match run m "k" [| VPtr h; VInt 8 |] 1 with
  | () -> Alcotest.fail "kernel dereferenced host memory"
  | exception Interp.Device_fault _ -> ()

let interp_managed_ok () =
  with_heap @@ fun () ->
  let mbuf = Memsim.Heap.alloc Memsim.Space.Managed 64 in
  let m = simple_module Dsl.[ store (p 0) tid (f 1.) ] in
  run m "k" [| VPtr mbuf; VInt 8 |] 1;
  Alcotest.(check (float 0.)) "managed" 1. (Memsim.Access.raw_get_f64 mbuf 0)

let interp_oob () =
  with_heap @@ fun () ->
  let a = dev_alloc 2 in
  let m = simple_module Dsl.[ store (p 0) (i 5) (f 1.) ] in
  match run m "k" [| VPtr a; VInt 1 |] 1 with
  | () -> Alcotest.fail "oob store"
  | exception Memsim.Ptr.Out_of_bounds _ -> ()

let interp_div_by_zero () =
  with_heap @@ fun () ->
  let a = dev_alloc 1 in
  let m = simple_module Dsl.[ store (p 0) (i 0) (i2f (i 1 /. i 0)) ] in
  match run m "k" [| VPtr a; VInt 1 |] 1 with
  | () -> Alcotest.fail "div by zero"
  | exception Interp.Runtime_error _ -> ()

let interp_undefined_kernel () =
  match run (simple_module []) "ghost" [||] 1 with
  | () -> Alcotest.fail "undefined kernel ran"
  | exception Interp.Runtime_error _ -> ()

let interp_tracer_footprint () =
  with_heap @@ fun () ->
  let a = dev_alloc 8 in
  let reads = ref 0 and writes = ref 0 in
  let tracer =
    {
      Interp.on_read = (fun _ ~bytes:_ -> incr reads);
      on_write = (fun _ ~bytes:_ -> incr writes);
    }
  in
  let m =
    simple_module Dsl.[ store (p 0) tid (load (p 0) tid +. f 1.) ]
  in
  Interp.run_kernel ~tracer m ~name:"k" ~args:[| VPtr a; VInt 8 |] ~grid:8;
  Alcotest.(check int) "reads" 8 !reads;
  Alcotest.(check int) "writes" 8 !writes

let interp_ntid () =
  with_heap @@ fun () ->
  let a = dev_alloc 4 in
  let m = simple_module Dsl.[ store (p 0) tid (i2f ntid) ] in
  run m "k" [| VPtr a; VInt 4 |] 4;
  Alcotest.(check (float 0.)) "ntid" 4. (Memsim.Access.raw_get_f64 a 2)

let pp_smoke () =
  let m = Apps.Jacobi.device_module in
  List.iter
    (fun f ->
      let s = Fmt.str "%a" Ir.pp_func f in
      Alcotest.(check bool) "prints something" true (String.length s > 10))
    m.Ir.funcs

let apps_modules_validate () =
  Validate.check_module Apps.Jacobi.device_module;
  Validate.check_module Apps.Tealeaf.device_module

let launch_args bufs scalars =
  Array.of_list (List.map (fun p -> Interp.VPtr p) bufs @ scalars)

(* Every byte of the allocation behind [p]. *)
let contents (p : Memsim.Ptr.t) =
  Memsim.Access.raw_read_bytes (Memsim.Ptr.make p.alloc) ~bytes:p.alloc.size

(* Native implementations agree with the interpreted IR bit for bit,
   and check exactly the extents their loops touch. Each run gets fresh
   buffers (the pointer arguments, followed by [scalars]) with the same
   non-trivial contents. After one launch of [grid] threads every
   element of every buffer must carry the same bits on both sides. The
   interpreter's tracer also yields the highest element each buffer
   touches: shortening that buffer to end just below it must make the
   native kernel raise [Out_of_bounds] before writing anything, and
   ending it just after it must not raise. *)
let native_matches m name native ~sizes ~scalars ~grid =
  with_heap @@ fun () ->
  let mk sizes =
    List.mapi
      (fun k n ->
        let p = dev_alloc n in
        for i = 0 to n - 1 do
          Memsim.Access.raw_set_f64 p i (sin (float (i + (101 * k))))
        done;
        p)
      sizes
  in
  let args bufs = launch_args bufs scalars in
  let ir = mk sizes in
  let last = Array.make (List.length sizes) (-1) in
  let touch (p : Memsim.Ptr.t) ~bytes:_ =
    List.iteri
      (fun k (b : Memsim.Ptr.t) ->
        if p.alloc == b.alloc then last.(k) <- max last.(k) ((p.off - b.off) / 8))
      ir
  in
  Interp.run_kernel ~tracer:{ Interp.on_read = touch; on_write = touch } m
    ~name ~args:(args ir) ~grid;
  let nat = mk sizes in
  native ~grid (args nat);
  List.iteri
    (fun k (n, (a, b)) ->
      for i = 0 to n - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "%s: buffer %d element %d" name k i)
          (Int64.bits_of_float (Memsim.Access.raw_get_f64 a i))
          (Int64.bits_of_float (Memsim.Access.raw_get_f64 b i))
      done)
    (List.combine sizes (List.combine ir nat));
  let resized k n = List.mapi (fun j s -> if j = k then n else s) sizes in
  Array.iteri
    (fun k hi ->
      if hi >= 0 then begin
        native ~grid (args (mk (resized k (hi + 1))));
        let bufs = mk (resized k hi) in
        let before = List.map contents bufs in
        (match native ~grid (args bufs) with
        | () ->
            Alcotest.failf "%s: buffer %d one element short accepted" name k
        | exception Memsim.Ptr.Out_of_bounds _ -> ());
        List.iter2
          (fun p b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: overrun of buffer %d wrote nothing" name k)
              true
              (Bytes.equal (contents p) b))
          bufs before
      end)
    last

let native_matches_ir () =
  let m = Apps.Jacobi.device_module in
  let nx = 8 and rows = 6 in
  let cells = nx * rows in
  native_matches m "jacobi" Apps.Jacobi.native_jacobi ~sizes:[ cells; cells ]
    ~scalars:[ VInt nx; VInt rows ] ~grid:cells;
  List.iter
    (fun has_top ->
      native_matches m "init" Apps.Jacobi.native_init ~sizes:[ cells; cells ]
        ~scalars:[ VInt nx; VInt rows; VInt has_top ] ~grid:cells)
    [ 0; 1 ];
  native_matches m "norm" Apps.Jacobi.native_norm ~sizes:[ 1; cells; cells ]
    ~scalars:[ VInt (cells - (2 * nx)) ] ~grid:cells

let tealeaf_native_matches_ir () =
  let open Apps.Tealeaf in
  let m = device_module in
  let nx = 6 and rows = 7 in
  let cells = nx * rows in
  native_matches m "tl_init" native_init ~sizes:[ cells ]
    ~scalars:[ VInt nx; VInt 12; VInt 3 ] ~grid:cells;
  native_matches m "tl_copy" native_copy ~sizes:[ cells; cells ]
    ~scalars:[ VInt (cells - 5) ] ~grid:cells;
  native_matches m "tl_matvec" native_matvec ~sizes:[ cells; cells ]
    ~scalars:[ VInt nx; VInt rows; VFlt 0.1 ] ~grid:cells;
  native_matches m "tl_cg_init" native_cg_init
    ~sizes:[ cells; cells; cells; cells ]
    ~scalars:[ VInt nx; VInt rows; VFlt 0.1 ] ~grid:cells;
  native_matches m "tl_dot" native_dot ~sizes:[ 1; cells; cells ]
    ~scalars:[ VInt cells ] ~grid:1;
  native_matches m "tl_axpy" native_axpy ~sizes:[ cells; cells ]
    ~scalars:[ VFlt 0.37; VInt (cells - 3) ] ~grid:cells;
  native_matches m "tl_beta" native_beta ~sizes:[ cells; cells ]
    ~scalars:[ VFlt (-1.25); VInt (cells - 3) ] ~grid:cells

let pingpong_native_matches_ir () =
  native_matches Apps.Pingpong.fill_src "fill" Apps.Pingpong.native_fill
    ~sizes:[ 32 ] ~scalars:[ VInt 28 ] ~grid:32

(* All eleven native kernels, with arguments for an [nx] × [rows] grid:
   the element count of each pointer argument, then the scalars, then
   the launch grid. *)
let native_kernels ~nx ~rows =
  let open Apps in
  let cells = nx * rows in
  let k ?(grid = cells) name native sizes (scalars : Interp.value list) =
    (name, native, sizes, scalars, grid)
  in
  let two = [ cells; cells ] in
  let stencil = [ Interp.VInt nx; VInt rows; VFlt 0.1 ] in
  [
    k "jacobi" Jacobi.native_jacobi two [ VInt nx; VInt rows ];
    k "init" Jacobi.native_init two [ VInt nx; VInt rows; VInt 1 ];
    k "norm" Jacobi.native_norm [ 1; cells; cells ] [ VInt (cells - (2 * nx)) ];
    k "tl_init" Tealeaf.native_init [ cells ] [ VInt nx; VInt rows; VInt 0 ];
    k "tl_copy" Tealeaf.native_copy two [ VInt cells ];
    k "tl_matvec" Tealeaf.native_matvec two stencil;
    k "tl_cg_init" Tealeaf.native_cg_init (two @ two) stencil;
    k ~grid:1 "tl_dot" Tealeaf.native_dot [ 1; cells; cells ] [ VInt cells ];
    k "tl_axpy" Tealeaf.native_axpy two [ VFlt 0.37; VInt cells ];
    k "tl_beta" Tealeaf.native_beta two [ VFlt (-1.25); VInt cells ];
    k "fill" Pingpong.native_fill [ cells ] [ VInt cells ];
  ]

(* Boxing and copying cannot creep back into the kernels: one launch on
   a 64 × 64 grid allocates a handful of words, not one boxed float per
   load. The count is every word allocated (minor + major - promoted):
   a copy of an extent into a fresh 4096-element array goes straight to
   the major heap, which [Gc.minor_words] alone would not see. *)
let native_kernels_allocation_free () =
  with_heap @@ fun () ->
  List.iter
    (fun (name, native, sizes, scalars, grid) ->
      let args = launch_args (List.map dev_alloc sizes) scalars in
      let minor0, promoted0, major0 = Gc.counters () in
      native ~grid args;
      let minor1, promoted1, major1 = Gc.counters () in
      let words =
        minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words < 1000" name words)
        true (words < 1000.))
    (native_kernels ~nx:64 ~rows:64)

(* An f64 extent over a pointer that is not 8-aligned is a diagnosed
   error (cudaErrorMisalignedAddress on a GPU) raised before the kernel
   writes anything: each buffer in turn gets one spare element and is
   passed 4 bytes in, and no byte of any allocation may change. *)
let native_misaligned_extent_raises () =
  with_heap @@ fun () ->
  List.iter
    (fun (name, native, sizes, scalars, grid) ->
      List.iteri
        (fun k _ ->
          let bufs =
            List.mapi
              (fun j n ->
                let p = dev_alloc (if j = k then n + 1 else n) in
                for i = 0 to n - 1 do
                  Memsim.Access.raw_set_f64 p i (float (i + j))
                done;
                if j = k then Memsim.Ptr.add_bytes p 4 else p)
              sizes
          in
          let before = List.map contents bufs in
          (match native ~grid (launch_args bufs scalars) with
          | () -> Alcotest.failf "%s: misaligned buffer %d accepted" name k
          | exception Memsim.Access.Misaligned_address msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S names the offset" name msg)
                true
                (String.ends_with ~suffix:"+4" msg));
          List.iter2
            (fun p b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: misaligned buffer %d wrote nothing" name
                   k)
                true
                (Bytes.equal (contents p) b))
            bufs before)
        sizes)
    (native_kernels ~nx:8 ~rows:6)

let tests =
  [
    Alcotest.test_case "validator accepts well-formed" `Quick validate_ok;
    Alcotest.test_case "validator: unbound local" `Quick validate_unbound_local;
    Alcotest.test_case "validator: param out of range" `Quick validate_param_range;
    Alcotest.test_case "validator: store to scalar" `Quick validate_store_to_scalar;
    Alcotest.test_case "validator: pointer in binop" `Quick
      validate_pointer_arith_in_binop;
    Alcotest.test_case "validator: storing a pointer" `Quick
      validate_storing_pointer;
    Alcotest.test_case "validator: undefined callee" `Quick
      validate_undefined_callee;
    Alcotest.test_case "validator: arity" `Quick validate_arity;
    Alcotest.test_case "validator: arg type" `Quick validate_arg_type_mismatch;
    Alcotest.test_case "validator: duplicate function" `Quick
      validate_duplicate_function;
    Alcotest.test_case "validator: missing kernel" `Quick validate_missing_kernel;
    Alcotest.test_case "validator: loop var scalar" `Quick
      validate_loop_var_is_scalar;
    Alcotest.test_case "interp: store per tid" `Quick interp_store_per_tid;
    Alcotest.test_case "interp: arithmetic" `Quick interp_arith;
    Alcotest.test_case "interp: loop sum" `Quick interp_loop_sum;
    Alcotest.test_case "interp: nested call (Fig. 8)" `Quick interp_nested_call;
    Alcotest.test_case "interp: pointer arithmetic" `Quick interp_ptradd;
    Alcotest.test_case "interp: i32 lanes" `Quick interp_i32;
    Alcotest.test_case "interp: device fault on host ptr" `Quick
      interp_device_fault;
    Alcotest.test_case "interp: managed ok" `Quick interp_managed_ok;
    Alcotest.test_case "interp: out of bounds" `Quick interp_oob;
    Alcotest.test_case "interp: div by zero" `Quick interp_div_by_zero;
    Alcotest.test_case "interp: undefined kernel" `Quick interp_undefined_kernel;
    Alcotest.test_case "interp: tracer footprint" `Quick interp_tracer_footprint;
    Alcotest.test_case "interp: ntid" `Quick interp_ntid;
    Alcotest.test_case "pp smoke" `Quick pp_smoke;
    Alcotest.test_case "app modules validate" `Quick apps_modules_validate;
    Alcotest.test_case "jacobi native = IR" `Quick native_matches_ir;
    Alcotest.test_case "tealeaf native = IR" `Quick tealeaf_native_matches_ir;
    Alcotest.test_case "pingpong native = IR" `Quick pingpong_native_matches_ir;
    Alcotest.test_case "native kernels allocation-free" `Quick
      native_kernels_allocation_free;
    Alcotest.test_case "native kernels: misaligned extent raises" `Quick
      native_misaligned_extent_raises;
  ]

let () = Alcotest.run "kir" [ ("kir", tests) ]
