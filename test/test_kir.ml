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

(* --- the module memo ------------------------------------------------------- *)

(* A module built fresh on every call: structurally equal, never
   physically. *)
let fresh_module () = simple_module Dsl.[ store (p 0) tid (f 1.) ]

let memo_by_identity () =
  let memo = Memo.create () and computed = ref 0 in
  let find m = Memo.find_or_add memo m (fun _ -> incr computed; !computed) in
  let m = fresh_module () and copy = fresh_module () in
  Alcotest.(check bool) "distinct but equal" true (m != copy && m = copy);
  Alcotest.(check int) "computed" 1 (find m);
  Alcotest.(check int) "cached" 1 (find m);
  Alcotest.(check int) "an equal copy is another key" 2 (find copy);
  Alcotest.(check int) "both stay cached" 1 (find m);
  (match Memo.find_or_add memo (fresh_module ()) (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int) "a failure caches nothing" 2 !computed

(* The least recently used module is the one dropped: [m] survives
   [capacity] newcomers while it keeps being used, and is computed
   again once it has not been. *)
let memo_bounded_lru () =
  let memo = Memo.create () and computed = ref 0 in
  let find m = Memo.find_or_add memo m (fun _ -> incr computed; !computed) in
  let m = fresh_module () in
  let first = find m in
  for _ = 1 to 2 * Memo.capacity do
    ignore (find (fresh_module ()));
    Alcotest.(check int) "kept while used" first (find m)
  done;
  for _ = 1 to Memo.capacity do
    ignore (find (fresh_module ()))
  done;
  Alcotest.(check bool) "dropped after capacity newcomers" true (find m <> first)

(* --- compiled = reference ------------------------------------------------- *)

(* The tree-walking interpreter that the compiled [Interp] replaced,
   kept as the reference model: locals in a string-keyed table per
   activation, every callee looked up by name at the call, the barrier
   flag recomputed per launch. It raises [Interp]'s exceptions, so
   outcomes compare directly. *)
module Reference = struct
  open Interp

  let as_int = function
    | VInt i -> i
    | VFlt f -> int_of_float f
    | VPtr _ -> raise (Runtime_error "pointer where scalar expected")

  let as_flt = function
    | VFlt f -> f
    | VInt i -> float_of_int i
    | VPtr _ -> raise (Runtime_error "pointer where scalar expected")

  let as_ptr = function
    | VPtr p -> p
    | v ->
        raise
          (Runtime_error (Fmt.str "scalar %a where pointer expected" pp_value v))

  let check_device (p : Memsim.Ptr.t) =
    if not (Memsim.Space.device_accessible (Memsim.Ptr.space p)) then
      raise
        (Device_fault (Fmt.str "kernel touched host memory %a" Memsim.Ptr.pp p))

  let truthy v = as_int v <> 0

  let binop op a b =
    let open Ir in
    let arith fi ff =
      match (a, b) with
      | VInt x, VInt y -> VInt (fi x y)
      | _ -> VFlt (ff (as_flt a) (as_flt b))
    in
    let cmp fi ff =
      match (a, b) with
      | VInt x, VInt y -> VInt (if fi x y then 1 else 0)
      | _ -> VInt (if ff (as_flt a) (as_flt b) then 1 else 0)
    in
    match op with
    | Add -> arith ( + ) ( +. )
    | Sub -> arith ( - ) ( -. )
    | Mul -> arith ( * ) ( *. )
    | Div -> (
        match (a, b) with
        | VInt x, VInt y ->
            if y = 0 then raise (Runtime_error "division by zero")
            else VInt (x / y)
        | _ -> VFlt (as_flt a /. as_flt b))
    | Mod -> (
        match (as_int a, as_int b) with
        | _, 0 -> raise (Runtime_error "mod by zero")
        | x, y -> VInt (x mod y))
    | Min -> arith min min
    | Max -> arith max max
    | Lt -> cmp ( < ) ( < )
    | Le -> cmp ( <= ) ( <= )
    | Eq -> cmp ( = ) ( = )
    | And -> VInt (if truthy a && truthy b then 1 else 0)
    | Or -> VInt (if truthy a || truthy b then 1 else 0)

  type frame = {
    args : value array;
    locals : (string, value) Hashtbl.t;
    tid : int;
    ntid : int;
  }

  type _ Effect.t += Barrier_reached : unit Effect.t

  let rec eval m tr fr (e : Ir.expr) : value =
    match e with
    | Int i -> VInt i
    | Flt f -> VFlt f
    | Param i ->
        if i < Array.length fr.args then fr.args.(i)
        else raise (Runtime_error "param out of range")
    | Local n -> (
        match Hashtbl.find_opt fr.locals n with
        | Some v -> v
        | None -> raise (Runtime_error ("unbound local " ^ n)))
    | Tid -> VInt fr.tid
    | Ntid -> VInt fr.ntid
    | Load (pe, ie) ->
        let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
        check_device p;
        tr.on_read (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
        VFlt (Memsim.Access.raw_get_f64 p i)
    | Loadi (pe, ie) ->
        let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
        check_device p;
        tr.on_read (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
        VInt (Memsim.Access.raw_get_i32 p i)
    | Binop (op, a, b) -> binop op (eval m tr fr a) (eval m tr fr b)
    | Neg a -> (
        match eval m tr fr a with
        | VInt i -> VInt (-i)
        | VFlt f -> VFlt (-.f)
        | VPtr _ -> raise (Runtime_error "negating a pointer"))
    | I2f a -> VFlt (as_flt (eval m tr fr a))
    | F2i a -> VInt (as_int (eval m tr fr a))
    | Ptradd (pe, ie) ->
        let p = as_ptr (eval m tr fr pe) and i = as_int (eval m tr fr ie) in
        VPtr (Memsim.Ptr.add p ~elt:8 i)

  and exec m tr fr (s : Ir.stmt) =
    match s with
    | Store (pe, ie, ve) ->
        let p = as_ptr (eval m tr fr pe)
        and i = as_int (eval m tr fr ie)
        and v = as_flt (eval m tr fr ve) in
        check_device p;
        tr.on_write (Memsim.Ptr.add p ~elt:8 i) ~bytes:8;
        Memsim.Access.raw_set_f64 p i v
    | Storei (pe, ie, ve) ->
        let p = as_ptr (eval m tr fr pe)
        and i = as_int (eval m tr fr ie)
        and v = as_int (eval m tr fr ve) in
        check_device p;
        tr.on_write (Memsim.Ptr.add p ~elt:4 i) ~bytes:4;
        Memsim.Access.raw_set_i32 p i v
    | Let (n, e) -> Hashtbl.replace fr.locals n (eval m tr fr e)
    | If (c, t, e) ->
        if truthy (eval m tr fr c) then List.iter (exec m tr fr) t
        else List.iter (exec m tr fr) e
    | For (v, lo, hi, body) ->
        let lo = as_int (eval m tr fr lo) and hi = as_int (eval m tr fr hi) in
        for x = lo to hi - 1 do
          Hashtbl.replace fr.locals v (VInt x);
          List.iter (exec m tr fr) body
        done
    | Call (name, args) -> (
        match Ir.find_func m name with
        | None -> raise (Runtime_error ("undefined function " ^ name))
        | Some callee ->
            let argv = Array.of_list (List.map (eval m tr fr) args) in
            let fr' = { fr with args = argv; locals = Hashtbl.create 8 } in
            List.iter (exec m tr fr') callee.Ir.body)
    | Barrier -> Effect.perform Barrier_reached

  let run_thread ?(tracer = no_trace) ?on_barrier m ~name ~args ~tid ~ntid =
    match Ir.find_func m name with
    | None -> raise (Runtime_error ("undefined kernel " ^ name))
    | Some f ->
        let fr = { args; locals = Hashtbl.create 8; tid; ntid } in
        let body () = List.iter (exec m tracer fr) f.Ir.body in
        Effect.Deep.match_with body ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Barrier_reached ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        (match on_barrier with Some f -> f () | None -> ());
                        Effect.Deep.continue k ())
                | _ -> None);
          }

  let thread_footprint m ~name ~args ~tid ~ntid =
    let events = ref [] and phase = ref 0 in
    let push write p ~bytes =
      events :=
        {
          ev_phase = !phase;
          ev_addr = Memsim.Ptr.addr p;
          ev_bytes = bytes;
          ev_write = write;
        }
        :: !events
    in
    let tracer = { on_read = push false; on_write = push true } in
    run_thread ~tracer ~on_barrier:(fun () -> incr phase) m ~name ~args ~tid
      ~ntid;
    List.rev !events

  let module_has_barrier m name =
    let visited = Hashtbl.create 8 in
    let rec func name =
      if Hashtbl.mem visited name then false
      else begin
        Hashtbl.replace visited name ();
        match Ir.find_func m name with
        | None -> false
        | Some f -> List.exists stmt f.Ir.body
      end
    and stmt = function
      | Ir.Barrier -> true
      | Ir.If (_, t, e) -> List.exists stmt t || List.exists stmt e
      | Ir.For (_, _, _, body) -> List.exists stmt body
      | Ir.Call (callee, _) -> func callee
      | Ir.Store _ | Ir.Storei _ | Ir.Let _ -> false
    in
    func name

  let run_kernel ?(tracer = no_trace) m ~name ~args ~grid =
    if not (module_has_barrier m name) then begin
      if grid > 0 then
        match Ir.find_func m name with
        | None -> raise (Runtime_error ("undefined kernel " ^ name))
        | Some f ->
            let locals = Hashtbl.create 8 in
            for tid = 0 to grid - 1 do
              Hashtbl.reset locals;
              let fr = { args; locals; tid; ntid = grid } in
              List.iter (exec m tracer fr) f.Ir.body
            done
    end
    else begin
      let next_wave : (unit -> unit) list ref = ref [] in
      let spawn tid () =
        match Ir.find_func m name with
        | None -> raise (Runtime_error ("undefined kernel " ^ name))
        | Some f ->
            let fr = { args; locals = Hashtbl.create 8; tid; ntid = grid } in
            List.iter (exec m tracer fr) f.Ir.body
      in
      let handle body =
        Effect.Deep.match_with body ()
          {
            retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Barrier_reached ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        next_wave :=
                          (fun () -> Effect.Deep.continue k ()) :: !next_wave)
                | _ -> None);
          }
      in
      for tid = 0 to grid - 1 do
        handle (spawn tid)
      done;
      while !next_wave <> [] do
        let wave = List.rev !next_wave in
        next_wave := [];
        List.iter handle wave
      done
    end
end

(* Random modules of three functions: the kernel [k (a, b, h, n)] with
   [h] a host buffer, a [helper (a, b, s)] it calls, and [rec (a, d)],
   which recurses while [d >= 1] and is only ever entered with an int
   [d <= 3]. Each body starts by binding [x], [y], [z], [i] and the
   pointer [q]; [w] is bound only inside branches and loops; loop trip
   counts stay below six. Every binop, [Loadi]/[Storei],
   [Neg]/[I2f]/[F2i]/[Ptradd], barriers in any position, recursion and
   out-of-bounds indices appear in every module. Half the modules are
   also [faulty]: they read [w] and the never-bound [u], pass scalars
   and pointers in each other's place, touch the host buffer, index
   parameters out of range and call [helper] with the wrong arity and
   an undefined [ghost]. *)
let diff_nelts = 6
let diff_grid = 4

let gen_diff_module_with ~faulty : Ir.modul QCheck.Gen.t =
  let open QCheck.Gen in
  let open Ir in
  let freq l =
    frequency (List.filter_map (fun (w, fault, g) -> if fault && not faulty then None else Some (w, g)) l)
  in
  let binops = [ Add; Sub; Mul; Div; Min; Max; Lt; Le; Eq; And; Or; Mod ] in
  let scalar_leaf ~nparams =
    freq
      [
        (7, false, map (fun k -> Int k) (int_range 0 (diff_nelts - 1)));
        (1, false, map (fun k -> Int k) (oneofl [ -1; diff_nelts ]));
        (4, false, map (fun f -> Flt f) (oneofl [ 0.; -0.; 0.5; -1.5; 3.; 1e300; Float.nan ]));
        (6, false, return Tid);
        (2, false, return Ntid);
        (10, false, map (fun n -> Local n) (oneofl [ "x"; "y"; "z"; "i" ]));
        (2, nparams < 4, return (Param 3));
        (2, true, return (Local "w"));
        (1, true, return (Local "u"));
      ]
  in
  let rec scalar ~nparams d =
    if d = 0 then scalar_leaf ~nparams
    else
      let scalar = scalar ~nparams (d - 1) and pointer = pointer ~nparams (d - 1) in
      freq
        [
          (16, false, scalar_leaf ~nparams);
          (16, false, map3 (fun op a b -> Binop (op, a, b)) (oneofl binops) scalar scalar);
          (4, false, map (fun e -> Neg e) scalar);
          (4, false, map (fun e -> I2f e) scalar);
          (4, false, map (fun e -> F2i e) scalar);
          (8, false, map2 (fun p i -> Load (p, i)) pointer scalar);
          (4, false, map2 (fun p i -> Loadi (p, i)) pointer scalar);
          (4, true, pointer);
        ]
  and pointer ~nparams d =
    freq
      ([
         (20, false, return (Param 0));
         (20, nparams < 3, return (Param 1));
         (8, false, return (Local "q"));
         (1, true, return (Param 2));
         (1, true, map (fun k -> Param k) (oneofl [ 7; -1 ]));
         (1, true, scalar_leaf ~nparams);
       ]
      @
      if d = 0 then []
      else
        [
          ( 6,
            false,
            map2 (fun p i -> Ptradd (p, i)) (pointer ~nparams (d - 1)) (scalar ~nparams (d - 1)) );
        ])
  in
  let helper_args =
    freq
      [
        (6, false, map3 (fun a b s -> [ a; b; s ]) (pointer ~nparams:4 1) (pointer ~nparams:4 1) (scalar ~nparams:4 1));
        (1, true, list_size (oneofl [ 2; 4 ]) (oneof [ pointer ~nparams:4 1; scalar ~nparams:4 1 ]));
      ]
  in
  let rec stmt ~nparams ~calls d =
    let scalar = scalar ~nparams and pointer = pointer ~nparams in
    let block n = list_size (0 -- n) (stmt ~nparams ~calls (d - 1)) in
    freq
      ([
         (16, false, map3 (fun p i v -> Store (p, i, v)) (pointer 1) (scalar 1) (scalar 2));
         (8, false, map3 (fun p i v -> Storei (p, i, v)) (pointer 1) (scalar 1) (scalar 2));
         (16, false, map2 (fun n e -> Let (n, e)) (oneofl [ "x"; "y"; "z" ]) (scalar 2));
         (4, false, map (fun p -> Let ("q", p)) (pointer 1));
         (4, false, return Barrier);
       ]
      @ (if d = 0 then []
         else
           [
             ( 8,
               false,
               map3 (fun c t e -> If (c, Let ("w", c) :: t, e)) (scalar 1) (block 3) (block 2) );
             ( 8,
               false,
               map3
                 (fun (v, lo) hi body -> For (v, lo, hi, body @ [ Let ("w", Local v) ]))
                 (pair (oneofl [ "i"; "i"; "x" ]) (map (fun k -> Int k) (int_range 0 2)))
                 (map (fun e -> Binop (Mod, F2i e, Int 6)) (scalar 1))
                 (block 3) );
           ])
      @
      if not calls then []
      else
        [
          (4, false, map (fun args -> Call ("helper", args)) helper_args);
          ( 4,
            false,
            map2 (fun p e -> Call ("rec", [ p; Binop (Min, F2i e, Int 3) ])) (pointer 1) (scalar 1) );
          (1, true, return (Call ("ghost", [])));
        ])
  in
  let prelude ~x ~q =
    [ Let ("x", x); Let ("y", I2f Tid); Let ("z", Int 2); Let ("i", Int 0); Let ("q", q) ]
  in
  let body ~nparams ~calls = list_size (1 -- 6) (stmt ~nparams ~calls 2) in
  map3
    (fun k helper r ->
      {
        funcs =
          [
            {
              fname = "k";
              params = [ ("a", Pointer); ("b", Pointer); ("h", Pointer); ("n", Scalar) ];
              body = prelude ~x:Tid ~q:(Ptradd (Param 0, Int 1)) @ k;
            };
            {
              fname = "helper";
              params = [ ("a", Pointer); ("b", Pointer); ("s", Scalar) ];
              body = prelude ~x:(Param 2) ~q:(Param 1) @ helper;
            };
            {
              fname = "rec";
              params = [ ("a", Pointer); ("d", Scalar) ];
              body =
                prelude ~x:(Param 1) ~q:(Param 0)
                @ [
                    If
                      ( Binop (Lt, Param 1, Int 1),
                        [],
                        r @ [ Call ("rec", [ Param 0; Binop (Sub, Param 1, Int 1) ]) ] );
                  ];
            };
          ];
        kernels = [ "k" ];
      })
    (body ~nparams:4 ~calls:true) (body ~nparams:3 ~calls:false)
    (list_size (0 -- 3) (stmt ~nparams:2 ~calls:false 1))

let gen_diff_module =
  let clean = gen_diff_module_with ~faulty:false
  and faulty = gen_diff_module_with ~faulty:true in
  QCheck.Gen.(bool >>= fun f -> if f then faulty else clean)

(* One run on fresh buffers — two device buffers with distinct contents
   and a host buffer — reporting the final bytes of all three, the
   events the run logged and the exception that ended it, if any. *)
let observe_diff run =
  with_heap @@ fun () ->
  let a = dev_alloc diff_nelts and b = dev_alloc diff_nelts in
  let h = Memsim.Heap.alloc Memsim.Space.Host_pageable (diff_nelts * 8) in
  for i = 0 to diff_nelts - 1 do
    Memsim.Access.raw_set_f64 a i (float_of_int i +. 0.25);
    Memsim.Access.raw_set_i32 b (2 * i) (i - 2);
    Memsim.Access.raw_set_i32 b ((2 * i) + 1) (3 * i)
  done;
  let events = ref [] in
  let log kind addr bytes = events := (kind, addr, bytes) :: !events in
  let args = Interp.[| VPtr a; VPtr b; VPtr h; VInt diff_grid |] in
  let raised =
    match run ~log args with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  ( List.map (fun p -> Bytes.to_string (contents p)) [ a; b; h ],
    List.rev !events,
    raised )

let tracer_of log =
  {
    Interp.on_read = (fun p ~bytes -> log "r" (Memsim.Ptr.addr p) bytes);
    on_write = (fun p ~bytes -> log "w" (Memsim.Ptr.addr p) bytes);
  }

(* [run_kernel], [run_thread] for every tid (barriers logged) and
   [thread_footprint] for every tid must leave the same bytes, log the
   same events and raise the same exception under both interpreters.
   The kernel name is mostly [k], sometimes undefined. *)
let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled = reference" ~count:1000 ~long_factor:20
    (QCheck.make
       ~print:(fun (m, name) ->
         Fmt.str "kernel %s@.%a" name (Fmt.list ~sep:Fmt.cut Ir.pp_func) m.Ir.funcs)
       QCheck.Gen.(
         pair gen_diff_module (frequency [ (19, return "k"); (1, return "ghost") ])))
    (fun (m, name) ->
      let grid = diff_grid and ntid = diff_grid in
      let same run = observe_diff (run `Compiled) = observe_diff (run `Reference) in
      same (fun impl ~log args ->
          let tracer = tracer_of log in
          match impl with
          | `Compiled -> Interp.run_kernel ~tracer m ~name ~args ~grid
          | `Reference -> Reference.run_kernel ~tracer m ~name ~args ~grid)
      && same (fun impl ~log args ->
             let tracer = tracer_of log and on_barrier () = log "barrier" 0 0 in
             for tid = 0 to grid - 1 do
               match impl with
               | `Compiled ->
                   Interp.run_thread ~tracer ~on_barrier m ~name ~args ~tid ~ntid
               | `Reference ->
                   Reference.run_thread ~tracer ~on_barrier m ~name ~args ~tid ~ntid
             done)
      && same (fun impl ~log args ->
             for tid = 0 to grid - 1 do
               List.iter
                 (fun (ev : Interp.footprint_event) ->
                   log
                     (Printf.sprintf "%s@%d" (if ev.ev_write then "w" else "r") ev.ev_phase)
                     ev.ev_addr ev.ev_bytes)
                 (match impl with
                 | `Compiled -> Interp.thread_footprint m ~name ~args ~tid ~ntid
                 | `Reference -> Reference.thread_footprint m ~name ~args ~tid ~ntid)
             done))

(* Every operator on every pair of corner operands (zeros of both signs,
   NaN, a negative int, a pointer) stores the same bits or raises the
   same error under both interpreters. *)
let compiled_matches_reference_on_operators () =
  let open Ir in
  let operands =
    [ Int 0; Int 1; Int (-3); Flt 0.; Flt (-0.); Flt Float.nan; Flt 2.5; Param 0 ]
  in
  let exprs =
    List.concat_map
      (fun a ->
        [ Neg a; I2f a; F2i a ]
        @ List.concat_map
            (fun b ->
              List.map
                (fun op -> Binop (op, a, b))
                [ Add; Sub; Mul; Div; Min; Max; Lt; Le; Eq; And; Or; Mod ])
            operands)
      operands
  in
  List.iter
    (fun e ->
      let m = simple_module [ Store (Param 0, Int 0, I2f e) ] in
      let outcome compiled =
        observe_diff (fun ~log args ->
            let tracer = tracer_of log in
            if compiled then Interp.run_kernel ~tracer m ~name:"k" ~args ~grid:1
            else Reference.run_kernel ~tracer m ~name:"k" ~args ~grid:1)
      in
      if outcome true <> outcome false then
        Alcotest.failf "%a differs" Ir.pp_expr e)
    exprs

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
    Alcotest.test_case "memo: keyed by identity" `Quick memo_by_identity;
    Alcotest.test_case "memo: bounded, least recently used dropped" `Quick
      memo_bounded_lru;
    Alcotest.test_case "compiled = reference on operator corners" `Quick
      compiled_matches_reference_on_operators;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
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
