(* Tests for MPI one-sided communication (RMA) and MUST's RMA race
   detection: data movement, window bounds, and the epoch/fence race
   model (local accesses during an exposure epoch, origin buffer reuse,
   concurrent Put/Get/Accumulate). *)

module R = Harness.Run
module F = Harness.Flavor
module Mpi = Mpisim.Mpi
module Dt = Mpisim.Datatype
module A = Memsim.Access

let f64 = Typeart.Typedb.F64

let run ?(flavor = F.Must) ?(nranks = 2) app = R.run ~nranks ~flavor app

let alloc ?(tag = "w") env n =
  ignore env;
  Typeart.Pass.alloc ~tag Memsim.Space.Host_pageable f64 n

(* --- data movement ------------------------------------------------------- *)

let put_moves_data () =
  let seen = ref 0. in
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 4 in
      List.iteri (A.raw_set_f64 src) [ 1.; 2.; 3.; 4. ];
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:2
    end;
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 1 then seen := A.get_f64 wbuf 3;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check (float 0.)) "put landed at disp+1" 2. !seen;
  Alcotest.(check int) "no races" 0 (List.length res.R.races)

let get_moves_data () =
  let seen = ref 0. in
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    if ctx.Mpi.rank = 1 then A.set_f64 wbuf 5 42.;
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let dst = alloc ~tag:"dst" env 1 in
      Mpi.get ctx win ~buf:dst ~count:1 ~dt:Dt.double ~target:1 ~disp:5;
      Mpi.win_fence ctx win;
      seen := A.get_f64 dst 0
    end
    else Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check (float 0.)) "got target value" 42. !seen;
  Alcotest.(check int) "no races" 0 (List.length res.R.races)

let accumulate_sums () =
  let seen = ref 0. in
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 4 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:32 in
    Mpi.win_fence ctx win;
    (* every rank (incl. the target itself) accumulates 1.5 into rank
       1's slot 0: concurrent same-op accumulates are legal *)
    let c = alloc ~tag:"c" env 1 in
    A.raw_set_f64 c 0 1.5;
    Mpi.accumulate ctx win ~buf:c ~count:1 ~dt:Dt.double ~op:Mpi.Sum ~target:1
      ~disp:0;
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 1 then seen := A.get_f64 wbuf 0;
    Mpi.win_free ctx win
  in
  let res = run ~nranks:3 app in
  Alcotest.(check (float 1e-12)) "3 x 1.5" 4.5 !seen;
  Alcotest.(check int) "concurrent accumulates legal" 0
    (List.length res.R.races)

(* --- bounds and lifecycle -------------------------------------------------- *)

let put_out_of_bounds () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 4 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:32 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 4 in
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:2
    end;
    Mpi.win_fence ctx win
  in
  (* The harness captures the failure with rank provenance instead of
     letting it escape; the survivor is left blocked on the dead rank's
     missing fence contribution, like a real MPI job. *)
  let res = run app in
  match res.R.failures with
  | [ (0, why) ] ->
      Alcotest.(check bool) "classified as MPI_ERR_RANGE" true
        (String.length why >= 13 && String.sub why 0 13 = "MPI_ERR_RANGE");
      Alcotest.(check bool) "peer blocked on dead rank" true
        (res.R.deadlock <> None)
  | l -> Alcotest.failf "expected rank 0 failure, got %d" (List.length l)

let freed_window_rejected () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 4 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:32 in
    Mpi.win_free ctx win;
    Mpi.win_fence ctx win
  in
  let res = run app in
  let died_with_err_win =
    List.filter
      (fun (_, why) ->
        String.length why >= 11 && String.sub why 0 11 = "MPI_ERR_WIN")
      res.R.failures
  in
  Alcotest.(check int) "both ranks report MPI_ERR_WIN" 2
    (List.length died_with_err_win)

(* --- race model -------------------------------------------------------------- *)

(* Shared skeleton: rank 0 puts into rank 1's window during epoch 1;
   [target_epoch1] runs on rank 1 inside that epoch, [target_epoch2]
   after the closing fence. *)
let put_program ?(origin_epoch1 = fun _ _ -> ()) ?(target_epoch1 = fun _ _ -> ())
    ?(target_epoch2 = fun _ _ -> ()) () : R.app =
 fun env ->
  let ctx = env.R.mpi in
  let wbuf = alloc env 8 in
  let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
  Mpi.win_fence ctx win;
  if ctx.Mpi.rank = 0 then begin
    let src = alloc ~tag:"src" env 8 in
    Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0;
    origin_epoch1 env src
  end
  else target_epoch1 env wbuf;
  Mpi.win_fence ctx win;
  if ctx.Mpi.rank = 1 then target_epoch2 env wbuf;
  Mpi.win_free ctx win

let read_after_fence_clean () =
  let res =
    run (put_program ~target_epoch2:(fun _ b -> ignore (A.get_f64 b 0)) ())
  in
  Alcotest.(check int) "read after closing fence" 0 (List.length res.R.races)

let local_read_during_epoch_races () =
  let res =
    run (put_program ~target_epoch1:(fun _ b -> ignore (A.get_f64 b 0)) ())
  in
  Alcotest.(check bool) "target read vs incoming put" true (R.has_races res)

let local_write_during_epoch_races () =
  let res =
    run (put_program ~target_epoch1:(fun _ b -> A.set_f64 b 0 9.) ())
  in
  Alcotest.(check bool) "target write vs incoming put" true (R.has_races res)

let origin_reuse_before_fence_races () =
  let res =
    run (put_program ~origin_epoch1:(fun _ src -> A.set_f64 src 0 7.) ())
  in
  Alcotest.(check bool) "origin buffer reuse before fence" true
    (R.has_races res)

let origin_reuse_after_fence_clean () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 8 in
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0;
      Mpi.win_fence ctx win;
      A.set_f64 src 0 7.
    end
    else Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check int) "reuse after fence" 0 (List.length res.R.races)

let origin_reuse_in_later_epoch_races () =
  (* The second epoch's origin fiber runs on the clock slot the first
     epoch's origin fiber retired (the fence acquired its completion);
     the report still names the origin fiber and its call. The two puts
     target disjoint window halves, so only the origin buffer races. *)
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    let src = alloc ~tag:"src" env 8 in
    if ctx.Mpi.rank = 0 then
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:0;
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:4;
      A.set_f64 src 1 7.
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check (list (pair int string)))
    "reports"
    [
      ( 0,
        "WARNING: data race at 0x3000000008 (8 bytes)\n\
        \  write of size 8 by fiber 'main' in main\n\
        \  previous read by fiber 'rma:origin:MPI_Put' in MPI_Put\n\
        \  location: src+8 (host-pageable, 64 bytes)" );
    ]
    (List.map (fun (rank, r) -> (rank, Tsan.Report.to_string r)) res.R.races)

(* Two puts from one origin to the same target bytes in epochs n and
   n+1: the fence between them orders them. The target may leave that
   fence before or after the origin makes the second put, and the
   origin may be the target itself; none of these orders may race. *)
let back_to_back_epoch_puts_clean ~origin ~target () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    let src = alloc ~tag:"src" env 8 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = origin then
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target ~disp:0;
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = origin then
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target ~disp:0;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check int) "fence orders the two puts" 0 (List.length res.R.races)

let overlapping_puts_race () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 8 in
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:0;
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:2
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check bool) "overlapping puts in one epoch" true (R.has_races res)

let disjoint_puts_clean () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 8 in
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:0;
      Mpi.put ctx win ~buf:src ~count:4 ~dt:Dt.double ~target:1 ~disp:4
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check int) "disjoint puts" 0 (List.length res.R.races)

let put_vs_get_race () =
  (* Rank 0 puts while rank 2 gets the same region in one epoch. *)
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 8 in
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0
    end
    else if ctx.Mpi.rank = 2 then begin
      let dst = alloc ~tag:"dst" env 8 in
      Mpi.get ctx win ~buf:dst ~count:8 ~dt:Dt.double ~target:1 ~disp:0
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run ~nranks:3 app in
  Alcotest.(check bool) "put vs get same epoch" true (R.has_races res)

let accumulate_vs_store_races () =
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let c = alloc ~tag:"c" env 1 in
      Mpi.accumulate ctx win ~buf:c ~count:1 ~dt:Dt.double ~op:Mpi.Sum
        ~target:1 ~disp:0
    end
    else A.set_f64 wbuf 0 1.;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check bool) "accumulate vs local store" true (R.has_races res)

let missing_opening_fence_races () =
  (* RMA before the first fence: the epoch was never opened, so the
     access is unordered even with the target's initialization. *)
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let wbuf = alloc env 8 in
    if ctx.Mpi.rank = 1 then A.set_f64 wbuf 0 1.;
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    if ctx.Mpi.rank = 0 then begin
      let src = alloc ~tag:"src" env 8 in
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run app in
  Alcotest.(check bool) "put before opening fence" true (R.has_races res)

(* --- CUDA-aware RMA ----------------------------------------------------------- *)

let device_window_roundtrip () =
  (* Windows over device memory: one-sided CUDA-aware communication. *)
  let seen = ref 0. in
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let dev = env.R.dev in
    let wbuf = Cudasim.Memory.cuda_malloc ~tag:"d_win" dev ~ty:f64 ~count:8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let src = Cudasim.Memory.cuda_malloc ~tag:"d_src" dev ~ty:f64 ~count:8 in
      Cudasim.Memory.memset dev ~dst:src ~bytes:64 ~value:0 ();
      Cudasim.Device.device_synchronize dev;
      A.raw_set_f64 src 1 3.25;
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0
    end;
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 1 then seen := A.raw_get_f64 wbuf 1;
    Mpi.win_free ctx win
  in
  let res = run ~flavor:F.Must_cusan app in
  Alcotest.(check (float 0.)) "device window data" 3.25 !seen;
  Alcotest.(check int) "clean" 0 (List.length res.R.races)

let kernel_then_put_without_sync_races () =
  (* The hybrid crossover: a kernel writes the origin buffer on a
     stream, and MPI_Put reads it without cudaDeviceSynchronize —
     CuSan's stream fiber vs MUST's RMA origin fiber. *)
  let app (env : R.env) =
    let ctx = env.R.mpi in
    let dev = env.R.dev in
    let wbuf = Cudasim.Memory.cuda_malloc ~tag:"d_win" dev ~ty:f64 ~count:8 in
    let win = Mpi.win_create ctx ~buf:wbuf ~bytes:64 in
    Mpi.win_fence ctx win;
    if ctx.Mpi.rank = 0 then begin
      let k =
        env.R.compile
          (Cudasim.Kernel.make
             ~kir:
               Kir.Dsl.(
                 ( modul ~kernels:[ "w" ]
                     [ func "w" [ ptr "a" ] [ store (p 0) tid (i2f tid) ] ],
                   "w" ))
             "w")
      in
      let src = Cudasim.Memory.cuda_malloc ~tag:"d_src" dev ~ty:f64 ~count:8 in
      Cudasim.Device.launch dev k ~grid:8 ~args:[| VPtr src |] ();
      (* missing cudaDeviceSynchronize *)
      Mpi.put ctx win ~buf:src ~count:8 ~dt:Dt.double ~target:1 ~disp:0
    end;
    Mpi.win_fence ctx win;
    Mpi.win_free ctx win
  in
  let res = run ~flavor:F.Must_cusan app in
  Alcotest.(check bool) "kernel-to-Put race" true (R.has_races res)

let tests =
  [
    Alcotest.test_case "put moves data" `Quick put_moves_data;
    Alcotest.test_case "get moves data" `Quick get_moves_data;
    Alcotest.test_case "accumulate sums" `Quick accumulate_sums;
    Alcotest.test_case "put out of bounds" `Quick put_out_of_bounds;
    Alcotest.test_case "freed window rejected" `Quick freed_window_rejected;
    Alcotest.test_case "read after fence clean" `Quick read_after_fence_clean;
    Alcotest.test_case "local read during epoch races" `Quick
      local_read_during_epoch_races;
    Alcotest.test_case "local write during epoch races" `Quick
      local_write_during_epoch_races;
    Alcotest.test_case "origin reuse before fence races" `Quick
      origin_reuse_before_fence_races;
    Alcotest.test_case "origin reuse after fence clean" `Quick
      origin_reuse_after_fence_clean;
    Alcotest.test_case "origin reuse in a later epoch races" `Quick
      origin_reuse_in_later_epoch_races;
    Alcotest.test_case "back-to-back epoch puts 0->1 clean" `Quick
      (back_to_back_epoch_puts_clean ~origin:0 ~target:1);
    Alcotest.test_case "back-to-back epoch puts 1->0 clean" `Quick
      (back_to_back_epoch_puts_clean ~origin:1 ~target:0);
    Alcotest.test_case "back-to-back epoch puts 0->0 clean" `Quick
      (back_to_back_epoch_puts_clean ~origin:0 ~target:0);
    Alcotest.test_case "overlapping puts race" `Quick overlapping_puts_race;
    Alcotest.test_case "disjoint puts clean" `Quick disjoint_puts_clean;
    Alcotest.test_case "put vs get race" `Quick put_vs_get_race;
    Alcotest.test_case "accumulate vs store races" `Quick
      accumulate_vs_store_races;
    Alcotest.test_case "missing opening fence races" `Quick
      missing_opening_fence_races;
    Alcotest.test_case "device window roundtrip" `Quick device_window_roundtrip;
    Alcotest.test_case "kernel then put without sync races" `Quick
      kernel_then_put_without_sync_races;
  ]

let () = Alcotest.run "rma" [ ("rma", tests) ]
