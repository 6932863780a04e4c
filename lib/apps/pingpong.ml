(* A CUDA-aware MPI ping-pong microbenchmark, after the OSU
   micro-benchmarks (osu_latency / osu_bw) that are the standard way to
   exercise CUDA-aware MPI transports: rank 0 sends a device buffer to
   rank 1, which sends it straight back, across a sweep of message
   sizes. Device buffers (D-D), or host staging (H-H) for comparison —
   the transfer path difference CUDA-aware MPI exists to remove.

   Latency is reported in virtual device+network time (the cost model's
   clock), so D-D vs. H-H reflects the modelled PCIe staging cost rather
   than OCaml allocator noise. The correct variant synchronizes the
   fill kernel before sending; the racy one does not. *)

module Dev = Cudasim.Device
module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi

type placement = Device_to_device | Host_to_host

type config = {
  sizes : int list; (* message sizes in doubles *)
  iters : int; (* round trips per size *)
  placement : placement;
  racy : bool;
  results : (int * float) list ref; (* (bytes, virtual one-way seconds) *)
}

let config ?(sizes = [ 1; 16; 256; 4096; 65536 ]) ?(iters = 10)
    ?(placement = Device_to_device) ?(racy = false) () =
  { sizes; iters; placement; racy; results = ref [] }

let fill_src =
  Kir.Dsl.(
    modul ~kernels:[ "fill" ]
      [
        func "fill"
          [ ptr "buf"; scalar "n" ]
          [ if_ (tid <. p 1) [ store (p 0) tid (i2f tid) ] [] ];
      ])

(* Native fill: one extent check for the elements the loop writes, then
   unchecked stores straight into the allocation's words, each below the
   extent's own count. *)
let native_fill ~grid (args : Kir.Interp.value array) =
  match args with
  | [| VPtr buf; VInt n |] ->
      let count = min grid n in
      let w, o = Memsim.Access.f64_extent buf ~count in
      for t = 0 to count - 1 do
        Float.Array.unsafe_set w (o + t) (float_of_int t)
      done
  | _ -> invalid_arg "native_fill"

(* Modelled interconnect: 100 Gb/s-class fabric with GPUDirect, so the
   network leg is the same for both placements; the placements differ by
   the PCIe staging copies the non-CUDA-aware variant pays per message
   (charged through the device cost model). *)
let net_overhead_s = 1.5e-6
let net_bandwidth = 12.5e9

let net_cost ~bytes = net_overhead_s +. (float_of_int bytes /. net_bandwidth)

(* --- fault-tolerant variant -------------------------------------------- *)

(* Outcome of the resilient ping-pong, per world rank. A rank killed by
   an injected crash never writes its slots, so they keep the initial
   values (0 round trips, not recovered, nan checksum). *)
type resilient_report = {
  completed : int array; (* round trips completed *)
  recovered : bool array; (* took the revoke/shrink recovery path *)
  checksum : float array; (* final device-buffer checksum *)
}

let resilient_report ~nranks =
  {
    completed = Array.make nranks 0;
    recovered = Array.make nranks false;
    checksum = Array.make nranks nan;
  }

(* The fill kernel writes buf[t] = t, so the checksum of an intact
   n-element buffer is 0 + 1 + ... + (n-1). *)
let expected_checksum ~n = float_of_int (n * (n - 1) / 2)

(* Ping-pong that survives the death of its peer: device-to-device
   round trips under [Errors_return]; on [MPI_ERR_PROC_FAILED] /
   [MPI_ERR_REVOKED] the survivor revokes, shrinks to a singleton
   communicator, restores the payload from its checkpoint (the peer may
   have died holding the ball), and finishes the remaining iterations
   locally. *)
let resilient_app ?(n = 256) ?(iters = 12) (rep : resilient_report)
    (env : Harness.Run.env) =
  let module Resil = Resilience in
  let ctx0 = env.Harness.Run.mpi in
  let dev = env.Harness.Run.dev in
  if ctx0.Mpi.size <> 2 then
    invalid_arg "resilient pingpong needs exactly 2 ranks";
  let world_rank = ctx0.Mpi.rank in
  Mpi.comm_set_errhandler ctx0 Mpisim.Comm.Errors_return;
  let ctx = ref ctx0 in
  let kernel =
    env.Harness.Run.compile
      (Cudasim.Kernel.make ~kir:(fill_src, "fill") ~native:native_fill "fill")
  in
  let dt = Mpisim.Datatype.double in
  let bytes = n * 8 in
  let d = Mem.cuda_malloc ~tag:"pp_dev" dev ~ty:Typeart.Typedb.F64 ~count:n in
  Dev.launch dev kernel ~grid:n ~args:[| VPtr d; VInt n |] ();
  Dev.device_synchronize dev;
  let ckpt = Resil.Checkpoint.create () in
  Resil.Checkpoint.save ckpt "payload" d ~bytes;
  let recover () =
    rep.recovered.(world_rank) <- true;
    Resil.with_retries ~label:"pingpong_recover"
      ~retryable:(function
        | Mpisim.Comm.Proc_failed _ | Mpisim.Comm.Revoked -> true
        | _ -> false)
      (fun ~attempt:_ ->
        Mpi.comm_revoke !ctx;
        ctx := Mpi.comm_shrink !ctx;
        Mpi.clear_error !ctx);
    (* The peer may have died holding the ball: roll the payload back to
       the last known-good snapshot. *)
    Resil.Checkpoint.restore ckpt "payload" d
  in
  for i = 1 to iters do
    if (!ctx).Mpi.size >= 2 then begin
      Mpi.clear_error !ctx;
      let rank = (!ctx).Mpi.rank in
      let peer = 1 - rank in
      let ok () = Mpi.last_error !ctx = Mpisim.Comm.Err_success in
      if rank = 0 then begin
        Mpi.send !ctx ~buf:d ~count:n ~dt ~dst:peer ~tag:0;
        if ok () then Mpi.recv !ctx ~buf:d ~count:n ~dt ~src:peer ~tag:1
      end
      else begin
        Mpi.recv !ctx ~buf:d ~count:n ~dt ~src:peer ~tag:0;
        if ok () then Mpi.send !ctx ~buf:d ~count:n ~dt ~dst:peer ~tag:1
      end;
      if not (ok ()) then recover ()
      else Resil.Checkpoint.save ckpt "payload" d ~bytes
    end;
    (* On a singleton communicator the round trip degenerates to a local
       bounce: the payload is already home. *)
    rep.completed.(world_rank) <- i
  done;
  let sum = ref 0. in
  for t = 0 to n - 1 do
    sum := !sum +. Memsim.Access.raw_get_f64 d t
  done;
  rep.checksum.(world_rank) <- !sum;
  Mem.free dev d

let app (cfg : config) (env : Harness.Run.env) =
  let ctx = env.Harness.Run.mpi in
  let dev = env.Harness.Run.dev in
  if ctx.Mpi.size <> 2 then invalid_arg "pingpong needs exactly 2 ranks";
  let rank = ctx.Mpi.rank in
  let peer = 1 - rank in
  let kernel =
    env.Harness.Run.compile
      (Cudasim.Kernel.make ~kir:(fill_src, "fill") ~native:native_fill "fill")
  in
  let dt = Mpisim.Datatype.double in
  List.iter
    (fun n ->
      let bytes = n * 8 in
      let d = Mem.cuda_malloc ~tag:"pp_dev" dev ~ty:Typeart.Typedb.F64 ~count:n in
      Dev.launch dev kernel ~grid:n ~args:[| VPtr d; VInt n |] ();
      if not cfg.racy then Dev.device_synchronize dev;
      let _, virt0 = Dev.timing dev in
      (match cfg.placement with
      | Device_to_device ->
          (* CUDA-aware: the device pointer goes straight to MPI. *)
          for _ = 1 to cfg.iters do
            if rank = 0 then begin
              Mpi.send ctx ~buf:d ~count:n ~dt ~dst:peer ~tag:0;
              Mpi.recv ctx ~buf:d ~count:n ~dt ~src:peer ~tag:1
            end
            else begin
              Mpi.recv ctx ~buf:d ~count:n ~dt ~src:peer ~tag:0;
              Mpi.send ctx ~buf:d ~count:n ~dt ~dst:peer ~tag:1
            end
          done
      | Host_to_host ->
          (* Non-CUDA-aware: stage through pinned host memory around
             every transfer — the copies CUDA-aware MPI eliminates. *)
          let h = Mem.cuda_host_alloc ~tag:"pp_host" dev ~ty:Typeart.Typedb.F64 ~count:n in
          for _ = 1 to cfg.iters do
            if rank = 0 then begin
              Mem.memcpy dev ~dst:h ~src:d ~bytes ();
              Mpi.send ctx ~buf:h ~count:n ~dt ~dst:peer ~tag:0;
              Mpi.recv ctx ~buf:h ~count:n ~dt ~src:peer ~tag:1;
              Mem.memcpy dev ~dst:d ~src:h ~bytes ()
            end
            else begin
              Mpi.recv ctx ~buf:h ~count:n ~dt ~src:peer ~tag:0;
              Mem.memcpy dev ~dst:d ~src:h ~bytes ();
              Mem.memcpy dev ~dst:h ~src:d ~bytes ();
              Mpi.send ctx ~buf:h ~count:n ~dt ~dst:peer ~tag:1
            end
          done;
          Typeart.Pass.free h);
      let _, virt1 = Dev.timing dev in
      if rank = 0 then begin
        (* one-way modelled latency: this rank's staging cost plus the
           network leg, averaged over the round trips *)
        let staging = (virt1 -. virt0) /. float_of_int (2 * cfg.iters) in
        let lat = staging +. net_cost ~bytes in
        cfg.results := (bytes, lat) :: !(cfg.results)
      end;
      Mem.free dev d)
    cfg.sizes;
  if rank = 0 then cfg.results := List.rev !(cfg.results)
