(* The TeaLeaf mini-app analogue (paper, Section V): an implicit heat
   conduction solver. Each timestep solves (I - alpha * Laplacian) u = b
   with a conjugate-gradient iteration on the device. The CG direction
   vector's boundary rows are exchanged with *non-blocking* CUDA-aware
   MPI (Irecv/Isend/Waitall) every iteration, and dot products are
   reduced with memcpy D2H + MPI_Allreduce.

   All kernels run on the (legacy) default stream, matching the paper's
   Table I, which reports a single tracked stream for TeaLeaf.

   Race modes:
   - [`No]: correct synchronization — cudaDeviceSynchronize before the
     sends, Waitall before the kernel consuming the halos.
   - [`Cuda_to_mpi]: the device synchronization before MPI_Isend is
     skipped, so the send may read rows a kernel is still writing
     (Fig. 4 case (i) of the paper).
   - [`Mpi_to_cuda]: the matvec kernel is launched before MPI_Waitall,
     so the kernel reads halo rows MPI_Irecv may still be writing
     (Fig. 6 A of the paper). *)

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi

type race_mode = [ `No | `Cuda_to_mpi | `Mpi_to_cuda ]

type config = {
  nx : int;
  ny : int; (* global interior rows *)
  steps : int; (* outer timesteps *)
  cg_iters : int; (* CG iterations per step *)
  alpha : float; (* conduction coefficient *)
  racy : race_mode;
  results : float array; (* final global residual per rank *)
}

let config ?(nx = 64) ?(ny = 64) ?(steps = 4) ?(cg_iters = 12) ?(alpha = 0.1)
    ?(racy = `No) ~nranks () =
  { nx; ny; steps; cg_iters; alpha; racy; results = Array.make nranks nan }

(* --- device code -------------------------------------------------------- *)

let init_func =
  Kir.Dsl.(
    func "tl_init"
      [ ptr "u"; scalar "nx"; scalar "gny"; scalar "y_off" ]
      [
        let_ "x" (tid %. p 1);
        let_ "gy" (p 3 +. (tid /. p 1));
        let_ "hot"
          ((p 1 /. i 4 <=. v "x")
          &&. (v "x" <. (i 3 *. p 1 /. i 4))
          &&. (p 2 /. i 4 <=. v "gy")
          &&. (v "gy" <. (i 3 *. p 2 /. i 4)));
        if_ (v "hot") [ store (p 0) tid (f 2.0) ] [ store (p 0) tid (f 0.5) ];
      ])

let copy_func =
  Kir.Dsl.(
    func "tl_copy" [ ptr "dst"; ptr "src"; scalar "n" ]
      [ if_ (tid <. p 2) [ store (p 0) tid (load (p 1) tid) ] [] ])

let matvec_body ~dst ~src =
  Kir.Dsl.(
    [
      let_ "x" (tid %. p 2);
      let_ "y" (tid /. p 2);
      let_ "interior"
        ((i 1 <=. v "x") &&. (v "x" <=. (p 2 -. i 2))
        &&. (i 1 <=. v "y")
        &&. (v "y" <=. (p 3 -. i 2)));
      if_ (v "interior")
        [
          store (p dst) tid
            (((f 1. +. (f 4. *. p 4)) *. load (p src) tid)
            -. (p 4
               *. (load (p src) (tid -. p 2)
                  +. load (p src) (tid +. p 2)
                  +. load (p src) (tid -. i 1)
                  +. load (p src) (tid +. i 1))));
        ]
        [ store (p dst) tid (f 0.) ];
    ])

(* w = A p *)
let matvec_func =
  Kir.Dsl.(
    func "tl_matvec"
      [ ptr "w"; ptr "pvec"; scalar "nx"; scalar "ny"; scalar "alpha" ]
      (matvec_body ~dst:0 ~src:1))

(* r = b - A u (interior); r = 0 elsewhere; p = r *)
let cg_init_func =
  Kir.Dsl.(
    func "tl_cg_init"
      [ ptr "r"; ptr "pvec"; ptr "b"; ptr "u"; scalar "nx"; scalar "ny"; scalar "alpha" ]
      [
        let_ "x" (tid %. p 4);
        let_ "y" (tid /. p 4);
        let_ "interior"
          ((i 1 <=. v "x") &&. (v "x" <=. (p 4 -. i 2))
          &&. (i 1 <=. v "y")
          &&. (v "y" <=. (p 5 -. i 2)));
        if_ (v "interior")
          [
            store (p 0) tid
              (load (p 2) tid
              -. ((f 1. +. (f 4. *. p 6)) *. load (p 3) tid)
              +. (p 6
                 *. (load (p 3) (tid -. p 4)
                    +. load (p 3) (tid +. p 4)
                    +. load (p 3) (tid -. i 1)
                    +. load (p 3) (tid +. i 1))));
          ]
          [ store (p 0) tid (f 0.) ];
        store (p 1) tid (load (p 0) tid);
      ])

let dot_func =
  Kir.Dsl.(
    func "tl_dot"
      [ ptr "out"; ptr "xs"; ptr "ys"; scalar "n" ]
      [
        (* Single-thread reduction: without the guard every thread
           would write out[0] — a static intra-kernel must-race. *)
        if_
          (tid ==. i 0)
          [
            store (p 0) (i 0) (f 0.);
            for_ "i" (i 0) (p 3)
              [
                store (p 0) (i 0)
                  (load (p 0) (i 0) +. (load (p 1) (v "i") *. load (p 2) (v "i")));
              ];
          ]
          [];
      ])

(* x += s * y *)
let axpy_func =
  Kir.Dsl.(
    func "tl_axpy"
      [ ptr "xs"; ptr "ys"; scalar "s"; scalar "n" ]
      [ if_ (tid <. p 3) [ store (p 0) tid (load (p 0) tid +. (p 2 *. load (p 1) tid)) ] [] ])

(* p = r + beta * p *)
let beta_func =
  Kir.Dsl.(
    func "tl_beta"
      [ ptr "pvec"; ptr "r"; scalar "beta"; scalar "n" ]
      [
        if_ (tid <. p 3)
          [ store (p 0) tid (load (p 1) tid +. (p 2 *. load (p 0) tid)) ]
          [];
      ])

let device_module =
  Kir.Dsl.modul
    ~kernels:
      [ "tl_init"; "tl_copy"; "tl_matvec"; "tl_cg_init"; "tl_dot"; "tl_axpy"; "tl_beta" ]
    [
      init_func; copy_func; matvec_func; cg_init_func; dot_func; axpy_func;
      beta_func;
    ]

(* --- native fat-binary implementations ---------------------------------- *)

(* Each kernel checks, before its first write, the element range its
   loop touches ([Memsim.Access.f64_extent]), then reads and writes the
   words of the allocation in place, unboxed and without a C call.
   Elementwise loops index [base + t] for [t] below the extent's own
   count; the stencils guard each row with [Memsim.Access.f64_span].
   Inside those spans the words move with
   [Float.Array.unsafe_get]/[unsafe_set]: the extent already covers
   them, so a per-word bounds check could never fire. Grids are walked
   row by row in thread order, boundary cells outside the interior loop,
   so no cell's coordinates are found by division. *)

module Access = Memsim.Access

let extent = Access.f64_extent

(* Element counts of the interior stencil on an nx × ny grid: up to the
   last interior cell (the cell written or read at t), and up to its
   lower neighbour (the highest cell the stencil reads). Both are 0 when
   the grid has no interior. *)
let interior_cells ~nx ~ny =
  if nx > 2 && ny > 2 then Access.grid_cells ~nx ~ny - nx - 1 else 0

let stencil_cells ~nx ~ny =
  if nx > 2 && ny > 2 then Access.grid_cells ~nx ~ny - 1 else 0

(* Thread t is column t mod nx of row t / nx. Rows are |nx| wide
   (division truncates toward zero), and with nx = 0 the IR divides by
   zero; the apps pass nx >= 1. *)
let native_init ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr u; VInt nx; VInt gny; VInt y_off |] ->
      let uw, uo = extent u ~count:grid in
      if grid > 0 then begin
        if nx = 0 then raise Division_by_zero;
        let width = if nx > 0 then nx else if nx > -grid then -nx else grid in
        let x_lo = nx / 4 and x_hi = 3 * nx / 4 in
        let y_lo = gny / 4 and y_hi = 3 * gny / 4 in
        for r = 0 to (grid - 1) / width do
          let gy = y_off + (if nx > 0 then r else -r) in
          let hot_row = y_lo <= gy && gy < y_hi in
          let t0 = r * width in
          let o = uo + t0 in
          for x = 0 to min width (grid - t0) - 1 do
            let hot = hot_row && x_lo <= x && x < x_hi in
            Float.Array.unsafe_set uw (o + x) (if hot then 2.0 else 0.5)
          done
        done
      end
  | _ -> invalid_arg "native_init"

let native_copy ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr dst; VPtr src; VInt n |] ->
      let count = min grid n in
      let sw, so = extent src ~count in
      let dw, dof = extent dst ~count in
      for t = 0 to count - 1 do
        Float.Array.unsafe_set dw (dof + t) (Float.Array.unsafe_get sw (so + t))
      done
  | _ -> invalid_arg "native_copy"

(* Row y of an nx × ny grid is cells [y * nx, y * nx + nx - 1]; it has
   interior cells 1 .. nx - 2 unless it is the first or last row or the
   grid is at most two columns wide. Every row is checked against the
   [cells] of its destination extent, and an interior row's stencil
   reads against the [stencil] extent. *)
let[@inline] interior_row ~nx ~ny y = y > 0 && y < ny - 1 && nx > 2

let native_matvec ~grid:_ (args : Kir.Interp.value array) =
  match args with
  | [| VPtr w; VPtr pv; VInt nx; VInt ny; VFlt a |] ->
      let stencil = stencil_cells ~nx ~ny and cells = Access.grid_cells ~nx ~ny in
      let pw, po = extent pv ~count:stencil in
      let ww, wo = extent w ~count:cells in
      let diag = 1. +. (4. *. a) in
      for y = 0 to (if cells > 0 then ny - 1 else -1) do
        let row = y * nx in
        let last = row + nx - 1 in
        Access.f64_span ~count:cells row last;
        if interior_row ~nx ~ny y then begin
          Access.f64_span ~count:stencil (row - nx + 1) (last + nx - 1);
          Float.Array.unsafe_set ww (wo + row) 0.;
          for t = row + 1 to last - 1 do
            let o = po + t in
            Float.Array.unsafe_set ww (wo + t)
              ((diag *. Float.Array.unsafe_get pw o)
              -. (a
                 *. (Float.Array.unsafe_get pw (o - nx)
                    +. Float.Array.unsafe_get pw (o + nx)
                    +. Float.Array.unsafe_get pw (o - 1)
                    +. Float.Array.unsafe_get pw (o + 1))))
          done;
          Float.Array.unsafe_set ww (wo + last) 0.
        end
        else
          for t = row to last do
            Float.Array.unsafe_set ww (wo + t) 0.
          done
      done
  | _ -> invalid_arg "native_matvec"

(* r = b - A u on interior cells, 0 elsewhere, then p = r: each cell's
   value goes to r and then to p, as each IR thread stores r[t] and
   copies it to p[t]. *)
let native_cg_init ~grid:_ (args : Kir.Interp.value array) =
  match args with
  | [| VPtr r; VPtr pv; VPtr b; VPtr u; VInt nx; VInt ny; VFlt a |] ->
      let interior = interior_cells ~nx ~ny and stencil = stencil_cells ~nx ~ny in
      let cells = Access.grid_cells ~nx ~ny in
      let bw, bo = extent b ~count:interior in
      let uw, uo = extent u ~count:stencil in
      let rw, ro = extent r ~count:cells in
      let pw, po = extent pv ~count:cells in
      let diag = 1. +. (4. *. a) in
      let[@inline] put t v =
        Float.Array.unsafe_set rw (ro + t) v;
        Float.Array.unsafe_set pw (po + t) v
      in
      for y = 0 to (if cells > 0 then ny - 1 else -1) do
        let row = y * nx in
        let last = row + nx - 1 in
        Access.f64_span ~count:cells row last;
        if interior_row ~nx ~ny y then begin
          Access.f64_span ~count:stencil (row - nx + 1) (last + nx - 1);
          Access.f64_span ~count:interior (row + 1) (last - 1);
          put row 0.;
          for t = row + 1 to last - 1 do
            let o = uo + t in
            put t
              (Float.Array.unsafe_get bw (bo + t)
              -. (diag *. Float.Array.unsafe_get uw o)
              +. (a
                 *. (Float.Array.unsafe_get uw (o - nx)
                    +. Float.Array.unsafe_get uw (o + nx)
                    +. Float.Array.unsafe_get uw (o - 1)
                    +. Float.Array.unsafe_get uw (o + 1))))
          done;
          put last 0.
        end
        else
          for t = row to last do
            put t 0.
          done
      done
  | _ -> invalid_arg "native_cg_init"

let native_dot ~grid:_ (args : Kir.Interp.value array) =
  match args with
  | [| VPtr out; VPtr xs; VPtr ys; VInt n |] ->
      let xw, xo = extent xs ~count:n in
      let yw, yo = extent ys ~count:n in
      let ow, oo = extent out ~count:1 in
      let s = ref 0. in
      for i = 0 to n - 1 do
        s :=
          !s
          +. (Float.Array.unsafe_get xw (xo + i) *. Float.Array.unsafe_get yw (yo + i))
      done;
      Float.Array.unsafe_set ow oo !s
  | _ -> invalid_arg "native_dot"

let native_axpy ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr xs; VPtr ys; VFlt s; VInt n |] ->
      let count = min grid n in
      let yw, yo = extent ys ~count in
      let xw, xo = extent xs ~count in
      for t = 0 to count - 1 do
        Float.Array.unsafe_set xw (xo + t)
          (Float.Array.unsafe_get xw (xo + t)
          +. (s *. Float.Array.unsafe_get yw (yo + t)))
      done
  | _ -> invalid_arg "native_axpy"

let native_beta ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr pv; VPtr r; VFlt beta; VInt n |] ->
      let count = min grid n in
      let rw, ro = extent r ~count in
      let pw, po = extent pv ~count in
      for t = 0 to count - 1 do
        Float.Array.unsafe_set pw (po + t)
          (Float.Array.unsafe_get rw (ro + t)
          +. (beta *. Float.Array.unsafe_get pw (po + t)))
      done
  | _ -> invalid_arg "native_beta"

(* --- host code ----------------------------------------------------------- *)

let f64 = Typeart.Typedb.F64

let app (cfg : config) (env : Harness.Run.env) =
  let ctx = env.Harness.Run.mpi in
  let dev = env.Harness.Run.dev in
  let rank = ctx.Mpi.rank and size = ctx.Mpi.size in
  let nx = cfg.nx in
  if cfg.ny mod size <> 0 then invalid_arg "TeaLeaf: ny must divide by nranks";
  let nyl = cfg.ny / size in
  let rows = nyl + 2 in
  let cells = nx * rows in
  let compile = env.Harness.Run.compile in
  let kernel name native =
    compile (Cudasim.Kernel.make ~kir:(device_module, name) ~native name)
  in
  let k_init = kernel "tl_init" native_init in
  let k_copy = kernel "tl_copy" native_copy in
  let k_matvec = kernel "tl_matvec" native_matvec in
  let k_cg_init = kernel "tl_cg_init" native_cg_init in
  let k_dot = kernel "tl_dot" native_dot in
  let k_axpy = kernel "tl_axpy" native_axpy in
  let k_beta = kernel "tl_beta" native_beta in
  let d name = Mem.cuda_malloc ~tag:name dev ~ty:f64 ~count:cells in
  let u = d "d_u" and b = d "d_b" and r = d "d_r" in
  let pvec = d "d_p" and w = d "d_w" in
  let d_scal = Mem.cuda_malloc ~tag:"d_scal" dev ~ty:f64 ~count:1 in
  let h_scal = Mem.host_malloc ~tag:"h_scal" ~ty:f64 ~count:1 () in
  let h_glob = Mem.host_malloc ~tag:"h_glob" ~ty:f64 ~count:1 () in
  let launch ?grid k args =
    Dev.launch dev k ~grid:(Option.value grid ~default:cells) ~args ()
  in
  let row rr buf = Memsim.Ptr.add buf ~elt:8 (rr * nx) in
  let up = rank - 1 and down = rank + 1 in
  (* Non-blocking halo exchange of [buf]'s boundary rows. *)
  let exchange_begin buf =
    let reqs = ref [] in
    if up >= 0 then begin
      reqs :=
        Mpi.irecv ctx ~buf:(row 0 buf) ~count:nx ~dt:Mpisim.Datatype.double
          ~src:up ~tag:1
        :: !reqs;
      reqs :=
        Mpi.isend ctx ~buf:(row 1 buf) ~count:nx ~dt:Mpisim.Datatype.double
          ~dst:up ~tag:0
        :: !reqs
    end;
    if down < size then begin
      reqs :=
        Mpi.irecv ctx ~buf:(row (nyl + 1) buf) ~count:nx
          ~dt:Mpisim.Datatype.double ~src:down ~tag:0
        :: !reqs;
      reqs :=
        Mpi.isend ctx ~buf:(row nyl buf) ~count:nx ~dt:Mpisim.Datatype.double
          ~dst:down ~tag:1
        :: !reqs
    end;
    !reqs
  in
  let exchange_end reqs = Mpi.waitall ctx reqs in
  (* Device dot product of x.y reduced over all ranks. *)
  let global_dot x y =
    launch ~grid:1 k_dot [| VPtr d_scal; VPtr x; VPtr y; VInt cells |];
    Mem.memcpy dev ~dst:h_scal ~src:d_scal ~bytes:8 ();
    Mpi.allreduce ctx ~sendbuf:h_scal ~recvbuf:h_glob ~count:1
      ~dt:Mpisim.Datatype.double ~op:Mpi.Sum;
    Memsim.Access.get_f64 h_glob 0
  in
  launch k_init [| VPtr u; VInt nx; VInt (cfg.ny + 2); VInt (rank * nyl) |];
  Dev.device_synchronize dev;
  let final_rr = ref nan in
  for _step = 1 to cfg.steps do
    (* Work arrays start clean each step (asynchronous w.r.t. host). *)
    Mem.memset dev ~dst:r ~bytes:(cells * 8) ~value:0 ();
    Mem.memset dev ~dst:w ~bytes:(cells * 8) ~value:0 ();
    Mem.memset dev ~dst:pvec ~bytes:(cells * 8) ~value:0 ();
    (* b = u, then make u's halos current before forming the residual. *)
    launch k_copy [| VPtr b; VPtr u; VInt cells |];
    Dev.device_synchronize dev;
    exchange_end (exchange_begin u);
    launch k_cg_init
      [| VPtr r; VPtr pvec; VPtr b; VPtr u; VInt nx; VInt rows; VFlt cfg.alpha |];
    Dev.device_synchronize dev;
    let rr = ref (global_dot r r) in
    let iter = ref 0 in
    while !iter < cfg.cg_iters && !rr > 1e-24 do
      incr iter;
      (* Halo exchange of the direction vector. *)
      (match cfg.racy with
      | `Cuda_to_mpi -> () (* missing device sync: sends may read rows
                               the tl_beta kernel is still writing *)
      | `No | `Mpi_to_cuda -> Dev.device_synchronize dev);
      let reqs = exchange_begin pvec in
      (match cfg.racy with
      | `Mpi_to_cuda ->
          (* matvec consumes halos before Waitall: MPI-to-CUDA race. *)
          launch k_matvec [| VPtr w; VPtr pvec; VInt nx; VInt rows; VFlt cfg.alpha |];
          exchange_end reqs
      | `No | `Cuda_to_mpi ->
          exchange_end reqs;
          launch k_matvec [| VPtr w; VPtr pvec; VInt nx; VInt rows; VFlt cfg.alpha |]);
      let pw = global_dot pvec w in
      if pw = 0. then iter := cfg.cg_iters
      else begin
        let alpha_cg = !rr /. pw in
        launch k_axpy [| VPtr u; VPtr pvec; VFlt alpha_cg; VInt cells |];
        launch k_axpy [| VPtr r; VPtr w; VFlt (-.alpha_cg); VInt cells |];
        let rr_new = global_dot r r in
        let beta = rr_new /. !rr in
        rr := rr_new;
        launch k_beta [| VPtr pvec; VPtr r; VFlt beta; VInt cells |]
      end
    done;
    final_rr := !rr
  done;
  Dev.device_synchronize dev;
  cfg.results.(rank) <- !final_rr;
  List.iter (Mem.free dev) [ u; b; r; pvec; w; d_scal ];
  Typeart.Pass.free h_scal;
  Typeart.Pass.free h_glob

(* Serial reference implementation on the global domain. *)
let reference (cfg : config) =
  let nx = cfg.nx and ny = cfg.ny in
  let rows = ny + 2 in
  let n = nx * rows in
  let u = Array.make n 0. and b = Array.make n 0. in
  let r = Array.make n 0. and p = Array.make n 0. and w = Array.make n 0. in
  for t = 0 to n - 1 do
    let x = t mod nx and gy = t / nx in
    let hot =
      nx / 4 <= x && x < 3 * nx / 4 && (ny + 2) / 4 <= gy && gy < 3 * (ny + 2) / 4
    in
    u.(t) <- (if hot then 2.0 else 0.5)
  done;
  let interior t =
    let x = t mod nx and y = t / nx in
    1 <= x && x <= nx - 2 && 1 <= y && y <= rows - 2
  in
  let a = cfg.alpha in
  let apply src t =
    ((1. +. (4. *. a)) *. src.(t))
    -. (a *. (src.(t - nx) +. src.(t + nx) +. src.(t - 1) +. src.(t + 1)))
  in
  let dot x y =
    let s = ref 0. in
    Array.iteri (fun i v -> s := !s +. (v *. y.(i))) x;
    !s
  in
  let final_rr = ref nan in
  for _step = 1 to cfg.steps do
    Array.blit u 0 b 0 n;
    for t = 0 to n - 1 do
      if interior t then r.(t) <- b.(t) -. apply u t else r.(t) <- 0.;
      p.(t) <- r.(t)
    done;
    let rr = ref (dot r r) in
    let iter = ref 0 in
    while !iter < cfg.cg_iters && !rr > 1e-24 do
      incr iter;
      for t = 0 to n - 1 do
        if interior t then w.(t) <- apply p t else w.(t) <- 0.
      done;
      let pw = dot p w in
      if pw = 0. then iter := cfg.cg_iters
      else begin
        let alpha_cg = !rr /. pw in
        for t = 0 to n - 1 do
          u.(t) <- u.(t) +. (alpha_cg *. p.(t));
          r.(t) <- r.(t) -. (alpha_cg *. w.(t))
        done;
        let rr_new = dot r r in
        let beta = rr_new /. !rr in
        rr := rr_new;
        for t = 0 to n - 1 do
          p.(t) <- r.(t) +. (beta *. p.(t))
        done
      end
    done;
    final_rr := !rr
  done;
  !final_rr
