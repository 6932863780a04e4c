(* The Jacobi solver mini-app, after NVIDIA's CUDA-aware MPI example
   (paper, Section V): a 2D Poisson/Laplace iteration on an nx × ny
   domain, decomposed by rows across ranks. Boundary rows are exchanged
   with *blocking* CUDA-aware sendrecv on device pointers each
   iteration.

   Like the original, the compute kernel runs on a user-created stream
   while memory transfers use the (legacy) default stream, so both the
   default-stream barrier semantics and the stream-to-MPI
   synchronization requirement are exercised. The correct version calls
   cudaDeviceSynchronize before communicating (Fig. 4 of the paper);
   the racy variant skips it, producing the CUDA-to-MPI race. *)

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi

(* Halo exchange flavor: classic two-sided blocking sendrecv, or
   one-sided MPI_Put between fences (RMA over device windows). *)
type exchange = Sendrecv | Rma

type config = {
  nx : int; (* global columns *)
  ny : int; (* global interior rows, split across ranks *)
  iters : int;
  norm_every : int; (* compute the residual norm every N iterations *)
  racy : bool; (* skip the device synchronization before MPI calls *)
  use_stream : bool; (* run kernels on a user stream (default: true) *)
  exchange : exchange;
  results : float array; (* final global norm per rank, written at exit *)
}

let config ?(nx = 256) ?(ny = 256) ?(iters = 100) ?(norm_every = 50)
    ?(racy = false) ?(use_stream = true) ?(exchange = Sendrecv) ~nranks () =
  {
    nx;
    ny;
    iters;
    norm_every;
    racy;
    use_stream;
    exchange;
    results = Array.make nranks nan;
  }

(* --- device code ------------------------------------------------------- *)

(* One Jacobi sweep: each thread owns one cell of the local array
   (ny_local + 2 rows including halo/boundary rows). *)
let jacobi_func =
  Kir.Dsl.(
    func "jacobi"
      [ ptr "anew"; ptr "aold"; scalar "nx"; scalar "ny" ]
      [
        let_ "x" (tid %. p 2);
        let_ "y" (tid /. p 2);
        if_
          ((i 1 <=. v "x") &&. (v "x" <=. (p 2 -. i 2))
          &&. (i 1 <=. v "y")
          &&. (v "y" <=. (p 3 -. i 2)))
          [
            let_ "c" ((v "y" *. p 2) +. v "x");
            store (p 0) (v "c")
              (f 0.25
              *. (load (p 1) (v "c" -. p 2)
                 +. load (p 1) (v "c" +. p 2)
                 +. load (p 1) (v "c" -. i 1)
                 +. load (p 1) (v "c" +. i 1)));
          ]
          [];
      ])

(* Initialization: interior zero; the physical top boundary row is held
   at 1.0. [p 4] is 1 when this rank owns the global top row. *)
let init_func =
  Kir.Dsl.(
    func "init"
      [ ptr "a"; ptr "anew"; scalar "nx"; scalar "ny"; scalar "has_top" ]
      [
        let_ "y" (tid /. p 2);
        let_ "val" (i2f ((v "y" ==. i 0) &&. (p 4 ==. i 1)));
        store (p 0) tid (v "val");
        store (p 1) tid (v "val");
      ])

(* Residual norm contribution: a single-thread reduction kernel writing
   the squared difference sum to out[0] — with a nested device function,
   exercising the interprocedural analysis (Fig. 8 of the paper). *)
let sqdiff_func =
  Kir.Dsl.(
    func "sqdiff"
      [ ptr "out"; ptr "anew"; ptr "aold"; scalar "idx" ]
      [
        let_ "d" (load (p 1) (p 3) -. load (p 2) (p 3));
        store (p 0) (i 0) (load (p 0) (i 0) +. (v "d" *. v "d"));
      ])

let norm_func =
  Kir.Dsl.(
    func "norm"
      [ ptr "out"; ptr "anew"; ptr "aold"; scalar "n" ]
      [
        (* Single-thread reduction: without the tid guard every thread
           of the launch would write out[0] — an intra-kernel race the
           static race analysis (rightly) flags as a must-race. *)
        if_
          (tid ==. i 0)
          [
            store (p 0) (i 0) (f 0.);
            for_ "i" (i 0) (p 3) [ call "sqdiff" [ p 0; p 1; p 2; v "i" ] ];
          ]
          [];
      ])

let device_module =
  Kir.Dsl.modul
    ~kernels:[ "jacobi"; "init"; "norm" ]
    [ jacobi_func; init_func; sqdiff_func; norm_func ]

(* Native "fat binary" implementations, bit-identical to the IR. Each
   checks, before its first write, the element range its loop touches
   ([Memsim.Access.f64_extent]) and then reads and writes the words of
   the allocation in place, unboxed and without a C call. Elementwise
   loops index [base + t] for [t] below the extent's own count; the
   stencil guards each row with [Memsim.Access.f64_span]. Inside those
   spans the words move with [Float.Array.unsafe_get]/[unsafe_set]: the
   extent already covers them, so a per-word bounds check could never
   fire. Cells are visited in thread order, row by row, so no cell's
   coordinates are found by division. *)

module Access = Memsim.Access

let extent = Access.f64_extent

let native_jacobi ~grid:_ (args : Kir.Interp.value array) =
  match args with
  | [| VPtr anew; VPtr aold; VInt nx; VInt ny |] ->
      if nx > 2 && ny > 2 then begin
        (* Highest cells touched: aold[c + nx] and anew[c] for the last
           interior cell c = (ny - 1) * nx - 2. *)
        let cells = Access.grid_cells ~nx ~ny in
        let on = cells - 1 and nn = cells - nx - 1 in
        let ow, oo = extent aold ~count:on in
        let nw, no = extent anew ~count:nn in
        for y = 1 to ny - 2 do
          let row = y * nx in
          (* Row y reads aold from its upper neighbour of x = 1 to the
             lower neighbour of x = nx - 2, and writes anew[row + 1 ..
             row + nx - 2]. *)
          Access.f64_span ~count:on (row - nx + 1) (row + nx + nx - 2);
          Access.f64_span ~count:nn (row + 1) (row + nx - 2);
          let o = oo + row and n = no + row in
          let up = o - nx and down = o + nx in
          for x = 1 to nx - 2 do
            Float.Array.unsafe_set nw (n + x)
              (0.25
              *. (Float.Array.unsafe_get ow (up + x)
                 +. Float.Array.unsafe_get ow (down + x)
                 +. Float.Array.unsafe_get ow (o + x - 1)
                 +. Float.Array.unsafe_get ow (o + x + 1)))
          done
        done
      end
  | _ -> invalid_arg "native_jacobi"

(* Thread t is in row t / nx, so row 0 is threads t < |nx| (division
   truncates toward zero); with nx = 0 the IR divides by zero. *)
let native_init ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr a; VPtr anew; VInt nx; VInt _; VInt has_top |] ->
      let aw, ao = extent a ~count:grid in
      let nw, no = extent anew ~count:grid in
      if grid > 0 && nx = 0 then raise Division_by_zero;
      let top = if nx > 0 then min grid nx else if nx > -grid then -nx else grid in
      let v = if has_top = 1 then 1.0 else 0.0 in
      for t = 0 to grid - 1 do
        let v = if t < top then v else 0.0 in
        Float.Array.unsafe_set aw (ao + t) v;
        Float.Array.unsafe_set nw (no + t) v
      done
  | _ -> invalid_arg "native_init"

let native_norm ~grid:_ (args : Kir.Interp.value array) =
  match args with
  | [| VPtr out; VPtr anew; VPtr aold; VInt n |] ->
      let nw, no = extent anew ~count:n in
      let ow, oo = extent aold ~count:n in
      let rw, ro = extent out ~count:1 in
      let s = ref 0. in
      for i = 0 to n - 1 do
        let d =
          Float.Array.unsafe_get nw (no + i) -. Float.Array.unsafe_get ow (oo + i)
        in
        s := !s +. (d *. d)
      done;
      Float.Array.unsafe_set rw ro !s
  | _ -> invalid_arg "native_norm"

(* --- host code ---------------------------------------------------------- *)

let f64 = Typeart.Typedb.F64

let app (cfg : config) (env : Harness.Run.env) =
  let ctx = env.Harness.Run.mpi in
  let dev = env.Harness.Run.dev in
  let rank = ctx.Mpi.rank and size = ctx.Mpi.size in
  let nx = cfg.nx in
  if cfg.ny mod size <> 0 then invalid_arg "Jacobi: ny must divide by nranks";
  let nyl = cfg.ny / size in
  let rows = nyl + 2 in
  let cells = nx * rows in
  let compile k = env.Harness.Run.compile k in
  let k_jacobi =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "jacobi") ~native:native_jacobi
         "jacobi")
  in
  let k_init =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "init") ~native:native_init
         "init")
  in
  let k_norm =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "norm") ~native:native_norm
         "norm")
  in
  let a = ref (Mem.cuda_malloc ~tag:"d_a" dev ~ty:f64 ~count:cells) in
  let anew = ref (Mem.cuda_malloc ~tag:"d_anew" dev ~ty:f64 ~count:cells) in
  let d_norm = Mem.cuda_malloc ~tag:"d_norm" dev ~ty:f64 ~count:1 in
  let h_norm = Mem.host_malloc ~tag:"h_norm" ~ty:f64 ~count:1 () in
  let h_norm_global = Mem.host_malloc ~tag:"h_norm_global" ~ty:f64 ~count:1 () in
  let stream = if cfg.use_stream then Some (Dev.stream_create dev) else None in
  let has_top = if rank = 0 then 1 else 0 in
  let launch k args =
    Dev.launch dev k ~grid:cells ~args ?stream ()
  in
  launch k_init
    [| VPtr !a; VPtr !anew; VInt nx; VInt rows; VInt has_top |];
  Dev.device_synchronize dev;
  let up = rank - 1 and down = rank + 1 in
  let row r buf = Memsim.Ptr.add buf ~elt:8 (r * nx) in
  (* One-sided exchange: a window over each of the two device arrays,
     swapped alongside the arrays. *)
  let win_of buf = Mpi.win_create ctx ~buf ~bytes:(cells * 8) in
  let wins =
    match cfg.exchange with
    | Sendrecv -> None
    | Rma -> Some (ref (win_of !a), ref (win_of !anew))
  in
  let exchange buf =
    match (cfg.exchange, wins) with
    | Sendrecv, _ | _, None ->
        (* Blocking two-sided exchange of boundary rows. *)
        if up >= 0 then
          Mpi.sendrecv ctx ~sendbuf:(row 1 buf) ~sendcount:nx ~dst:up
            ~sendtag:0 ~recvbuf:(row 0 buf) ~recvcount:nx ~src:up ~recvtag:1
            ~dt:Mpisim.Datatype.double;
        if down < size then
          Mpi.sendrecv ctx ~sendbuf:(row nyl buf) ~sendcount:nx ~dst:down
            ~sendtag:1 ~recvbuf:(row (nyl + 1) buf) ~recvcount:nx ~src:down
            ~recvtag:0 ~dt:Mpisim.Datatype.double
    | Rma, Some (_, wanew) ->
        (* One-sided: put my boundary rows into the neighbours' halo
           rows, between two fences. *)
        let win = !wanew in
        Mpi.win_fence ctx win;
        if up >= 0 then
          Mpi.put ctx win ~buf:(row 1 buf) ~count:nx ~dt:Mpisim.Datatype.double
            ~target:up ~disp:((nyl + 1) * nx);
        if down < size then
          Mpi.put ctx win ~buf:(row nyl buf) ~count:nx
            ~dt:Mpisim.Datatype.double ~target:down ~disp:0;
        Mpi.win_fence ctx win
  in
  let last_norm = ref nan in
  for iter = 1 to cfg.iters do
    launch k_jacobi [| VPtr !anew; VPtr !a; VInt nx; VInt rows |];
    (* The data dependence between the compute stream and the following
       MPI calls requires explicit synchronization (paper, Fig. 4). *)
    if not cfg.racy then Dev.device_synchronize dev;
    exchange !anew;
    if iter mod cfg.norm_every = 0 || iter = cfg.iters then begin
      (* Interior rows only: halo rows belong to the neighbour rank. *)
      launch k_norm
        [| VPtr d_norm; VPtr (row 1 !anew); VPtr (row 1 !a); VInt (nx * nyl) |];
      (* Blocking D2H copy: an implicit synchronization point. *)
      Mem.memcpy dev ~dst:h_norm ~src:d_norm ~bytes:8 ();
      Mpi.allreduce ctx ~sendbuf:h_norm ~recvbuf:h_norm_global ~count:1
        ~dt:Mpisim.Datatype.double ~op:Mpi.Sum;
      last_norm := sqrt (Memsim.Access.get_f64 h_norm_global 0)
    end;
    let t = !a in
    a := !anew;
    anew := t;
    match wins with
    | Some (wa, wanew) ->
        let tw = !wa in
        wa := !wanew;
        wanew := tw
    | None -> ()
  done;
  cfg.results.(rank) <- !last_norm;
  (match wins with
  | Some (wa, wanew) ->
      Mpi.win_free ctx !wa;
      Mpi.win_free ctx !wanew
  | None -> ());
  (match stream with Some s -> Dev.stream_destroy dev s | None -> ());
  Mem.free dev !a;
  Mem.free dev !anew;
  Mem.free dev d_norm;
  Typeart.Pass.free h_norm;
  Typeart.Pass.free h_norm_global

(* --- fault-tolerant variant -------------------------------------------- *)

(* Per-world-rank recovery record: whether the rank took the
   revoke/shrink path, and the iteration it rolled back to (-1 if it
   never had to). A crashed rank leaves its slots untouched. *)
type resilient_outcome = { recovered : bool array; restart_iter : int array }

let resilient_outcome ~nranks =
  {
    recovered = Array.make nranks false;
    restart_iter = Array.make nranks (-1);
  }

(* Jacobi that survives rank crashes: every `norm_every` iterations the
   ranks allgather their interior slices into a full replicated copy of
   the domain — an in-memory checkpoint every rank holds. When an MPI
   call reports MPI_ERR_PROC_FAILED / MPI_ERR_REVOKED, survivors revoke
   the communicator, shrink it, agree on the newest checkpoint
   generation everybody can reach (a rank may have died mid-allgather,
   leaving survivors one generation apart), re-decompose the domain over
   the shrunken communicator, restore from the checkpoint and resume.
   The final norm matches the fault-free run up to summation order.

   Restriction: Sendrecv exchange only (windows pin buffer identity
   across ranks, which re-decomposition breaks), and ny must divide by
   every survivor count the fault plan can produce; where it does not,
   the survivors fail with [Mpi.Abort] naming ny and their count. *)
let resilient_app (cfg : config) (out : resilient_outcome)
    (env : Harness.Run.env) =
  let module Resil = Resilience in
  let ctx0 = env.Harness.Run.mpi in
  let dev = env.Harness.Run.dev in
  if cfg.exchange <> Sendrecv then
    invalid_arg "Jacobi.resilient_app: Sendrecv exchange only";
  let world_rank = ctx0.Mpi.rank in
  if cfg.ny mod ctx0.Mpi.size <> 0 then
    invalid_arg "Jacobi: ny must divide by nranks";
  Mpi.comm_set_errhandler ctx0 Mpisim.Comm.Errors_return;
  let ctx = ref ctx0 in
  let nx = cfg.nx in
  let dt = Mpisim.Datatype.double in
  let compile k = env.Harness.Run.compile k in
  let k_jacobi =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "jacobi") ~native:native_jacobi
         "jacobi")
  in
  let k_init =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "init") ~native:native_init
         "init")
  in
  let k_norm =
    compile
      (Cudasim.Kernel.make ~kir:(device_module, "norm") ~native:native_norm
         "norm")
  in
  let d_norm = Mem.cuda_malloc ~tag:"d_norm" dev ~ty:f64 ~count:1 in
  let h_norm = Mem.host_malloc ~tag:"h_norm" ~ty:f64 ~count:1 () in
  let h_norm_global = Mem.host_malloc ~tag:"h_norm_global" ~ty:f64 ~count:1 () in
  (* Replicated checkpoint staging: the full global interior. *)
  let h_global =
    Mem.host_malloc ~tag:"h_ckpt_global" ~ty:f64 ~count:(nx * cfg.ny) ()
  in
  let stream = if cfg.use_stream then Some (Dev.stream_create dev) else None in
  let ckpt = Resil.Checkpoint.create () in
  let ckpt_iter = ref (-1) in
  (* Per-epoch state: one epoch per communicator incarnation. Shrinking
     re-decomposes ny over the survivors, so the local arrays are
     reallocated on recovery. *)
  let r_nyl = ref 0 and r_rows = ref 0 and r_cells = ref 0 in
  let a = ref None and anew = ref None and h_interior = ref None in
  let arr r = Option.get !r in
  let launch k args = Dev.launch dev k ~grid:!r_cells ~args ?stream () in
  let row r buf = Memsim.Ptr.add buf ~elt:8 (r * nx) in
  let setup_epoch () =
    let size = (!ctx).Mpi.size and rank = (!ctx).Mpi.rank in
    (* Which crashes a fault plan leaves is known only at run time, so a
       survivor count that does not divide ny is this rank's diagnosed
       failure, recorded by the harness, not a crash of the process. *)
    if cfg.ny mod size <> 0 then
      raise
        (Mpi.Abort
           (Fmt.str "Jacobi: ny = %d rows do not divide over %d survivor(s)"
              cfg.ny size));
    let nyl = cfg.ny / size in
    r_nyl := nyl;
    r_rows := nyl + 2;
    r_cells := nx * !r_rows;
    (match (!a, !anew, !h_interior) with
    | Some da, Some dan, Some hi ->
        Mem.free dev da;
        Mem.free dev dan;
        Typeart.Pass.free hi
    | _ -> ());
    a := Some (Mem.cuda_malloc ~tag:"d_a" dev ~ty:f64 ~count:!r_cells);
    anew := Some (Mem.cuda_malloc ~tag:"d_anew" dev ~ty:f64 ~count:!r_cells);
    h_interior :=
      Some (Mem.host_malloc ~tag:"h_interior" ~ty:f64 ~count:(nyl * nx) ());
    let has_top = if rank = 0 then 1 else 0 in
    launch k_init
      [| VPtr (arr a); VPtr (arr anew); VInt nx; VInt !r_rows; VInt has_top |];
    Dev.device_synchronize dev
  in
  let exchange buf =
    let size = (!ctx).Mpi.size and rank = (!ctx).Mpi.rank in
    let up = rank - 1 and down = rank + 1 in
    if up >= 0 then
      Mpi.sendrecv !ctx ~sendbuf:(row 1 buf) ~sendcount:nx ~dst:up ~sendtag:0
        ~recvbuf:(row 0 buf) ~recvcount:nx ~src:up ~recvtag:1 ~dt;
    if down < size then
      Mpi.sendrecv !ctx ~sendbuf:(row !r_nyl buf) ~sendcount:nx ~dst:down
        ~sendtag:1 ~recvbuf:(row (!r_nyl + 1) buf) ~recvcount:nx ~src:down
        ~recvtag:0 ~dt
  in
  let ok () = Mpi.last_error !ctx = Mpisim.Comm.Err_success in
  (* Collective: replicate [state]'s interior into every rank's h_global
     and snapshot it. Only promoted to the new generation if the
     allgather completed cleanly on this rank. *)
  let checkpoint_now it state =
    Mem.memcpy dev ~dst:(arr h_interior) ~src:(row 1 state)
      ~bytes:(!r_nyl * nx * 8) ();
    Mpi.allgather !ctx ~sendbuf:(arr h_interior) ~recvbuf:h_global
      ~count:(!r_nyl * nx) ~dt;
    if ok () then begin
      Resil.Checkpoint.save ckpt "global" h_global ~bytes:(nx * cfg.ny * 8);
      ckpt_iter := it
    end
  in
  (* Raw (uninstrumented) copy of this rank's slice of the replicated
     checkpoint back into device memory — restore is stable-storage
     traffic, not program accesses, so it must not perturb race
     reports. *)
  let restore_interior () =
    let base = (!ctx).Mpi.rank * !r_nyl in
    let da = arr a in
    for r = 0 to !r_nyl - 1 do
      for x = 0 to nx - 1 do
        Memsim.Access.raw_set_f64 da
          (((r + 1) * nx) + x)
          (Memsim.Access.raw_get_f64 h_global (((base + r) * nx) + x))
      done
    done
  in
  let last_norm = ref nan in
  let iter = ref 1 in
  let rec recover () =
    out.recovered.(world_rank) <- true;
    Resil.with_retries ~label:"jacobi_recover" ~max_attempts:4
      ~retryable:(function
        | Mpisim.Comm.Proc_failed _ | Mpisim.Comm.Revoked -> true
        | _ -> false)
      (fun ~attempt:_ ->
        Mpi.comm_revoke !ctx;
        ctx := Mpi.comm_shrink !ctx;
        Mpi.clear_error !ctx;
        (* Failures during the recovery protocol itself should raise so
           with_retries can re-shrink; flip back before returning. *)
        Mpi.comm_set_errhandler !ctx Mpisim.Comm.Errors_are_fatal;
        (* A rank can die mid-allgather, leaving survivors one
           checkpoint generation apart: agree on the newest generation
           and have its lowest holder rebroadcast it. *)
        Memsim.Access.raw_set_f64 h_norm 0 (float_of_int !ckpt_iter);
        Mpi.allreduce !ctx ~sendbuf:h_norm ~recvbuf:h_norm_global ~count:1 ~dt
          ~op:Mpi.Max;
        let newest = int_of_float (Memsim.Access.raw_get_f64 h_norm_global 0) in
        Memsim.Access.raw_set_f64 h_norm 0
          (if !ckpt_iter = newest then float_of_int (!ctx).Mpi.rank else 1e18);
        Mpi.allreduce !ctx ~sendbuf:h_norm ~recvbuf:h_norm_global ~count:1 ~dt
          ~op:Mpi.Min;
        let root = int_of_float (Memsim.Access.raw_get_f64 h_norm_global 0) in
        (* newest < 0 means nobody completed even the generation-0
           allgather; the post-init state *is* that generation, so there
           is nothing to rebroadcast. *)
        if newest >= 0 then begin
          if !ckpt_iter = newest then
            Resil.Checkpoint.restore ckpt "global" h_global;
          Mpi.bcast !ctx ~buf:h_global ~count:(nx * cfg.ny) ~dt ~root;
          Resil.Checkpoint.save ckpt "global" h_global
            ~bytes:(nx * cfg.ny * 8);
          ckpt_iter := newest
        end;
        Mpi.comm_set_errhandler !ctx Mpisim.Comm.Errors_return);
    setup_epoch ();
    if !ckpt_iter >= 0 then restore_interior ();
    (* Interior rows came from the checkpoint; halo rows come from the
       new neighbours. *)
    Mpi.clear_error !ctx;
    exchange (arr a);
    iter := max 1 (!ckpt_iter + 1);
    out.restart_iter.(world_rank) <- !iter;
    if not (ok ()) then recover ()
  in
  setup_epoch ();
  (* Generation 0: the initial state, so recovery always has a
     checkpoint to fall back to. *)
  checkpoint_now 0 (arr a);
  while !iter <= cfg.iters do
    Mpi.clear_error !ctx;
    launch k_jacobi [| VPtr (arr anew); VPtr (arr a); VInt nx; VInt !r_rows |];
    if not cfg.racy then Dev.device_synchronize dev;
    exchange (arr anew);
    if ok () && (!iter mod cfg.norm_every = 0 || !iter = cfg.iters) then begin
      launch k_norm
        [|
          VPtr d_norm;
          VPtr (row 1 (arr anew));
          VPtr (row 1 (arr a));
          VInt (nx * !r_nyl);
        |];
      Mem.memcpy dev ~dst:h_norm ~src:d_norm ~bytes:8 ();
      Mpi.allreduce !ctx ~sendbuf:h_norm ~recvbuf:h_norm_global ~count:1 ~dt
        ~op:Mpi.Sum;
      if ok () then begin
        last_norm := sqrt (Memsim.Access.get_f64 h_norm_global 0);
        checkpoint_now !iter (arr anew)
      end
    end;
    if not (ok ()) then recover ()
    else begin
      let t = arr a in
      a := !anew;
      anew := Some t;
      incr iter
    end
  done;
  cfg.results.(world_rank) <- !last_norm;
  (match stream with Some s -> Dev.stream_destroy dev s | None -> ());
  Mem.free dev (arr a);
  Mem.free dev (arr anew);
  Mem.free dev d_norm;
  Typeart.Pass.free (arr h_interior);
  Typeart.Pass.free h_norm;
  Typeart.Pass.free h_norm_global;
  Typeart.Pass.free h_global

(* Serial host reference for verification: same sweep count on the full
   global domain, returning the final residual norm. *)
let reference ~nx ~ny ~iters ~norm_every:_ =
  let rows = ny + 2 in
  let a = Array.make (nx * rows) 0. and anew = Array.make (nx * rows) 0. in
  for x = 0 to nx - 1 do
    a.(x) <- 1.0;
    anew.(x) <- 1.0
  done;
  let norm = ref nan in
  let a = ref a and anew = ref anew in
  for iter = 1 to iters do
    for y = 1 to rows - 2 do
      for x = 1 to nx - 2 do
        let c = (y * nx) + x in
        !anew.(c) <-
          0.25 *. (!a.(c - nx) +. !a.(c + nx) +. !a.(c - 1) +. !a.(c + 1))
      done
    done;
    if iter = iters then begin
      let s = ref 0. in
      Array.iteri (fun i v -> let d = v -. !a.(i) in s := !s +. (d *. d)) !anew;
      norm := sqrt !s
    end;
    let t = !a in
    a := !anew;
    anew := t
  done;
  !norm
