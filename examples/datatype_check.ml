(* MUST + TypeART datatype checking example (paper, Fig. 2): passing a
   float buffer as MPI_DOUBLE, and communicating more elements than the
   allocation holds, are both flagged from the type information TypeART
   recorded at the (instrumented) allocation site.

     dune exec examples/datatype_check.exe *)

let () = Trace.Cli.parse ~prog:"datatype_check" [ Trace.Cli.trace ]

module Mem = Cudasim.Memory
module Mpi = Mpisim.Mpi
module R = Harness.Run

let program : R.app =
 fun env ->
  let dev = env.R.dev in
  let ctx = env.R.mpi in
  if ctx.Mpi.rank = 0 then begin
    (* Bug 1: an f32 buffer declared as MPI_DOUBLE. *)
    let wrong = Mem.cuda_malloc ~tag:"f32_buf" dev ~ty:Typeart.Typedb.F32 ~count:32 in
    Mpi.send ctx ~buf:wrong ~count:16 ~dt:Mpisim.Datatype.double ~dst:1 ~tag:0;
    let ok = Mem.cuda_malloc ~tag:"ok_buf" dev ~ty:Typeart.Typedb.F64 ~count:32 in
    Mpi.send ctx ~buf:ok ~count:4 ~dt:Mpisim.Datatype.double ~dst:1 ~tag:1;
    Mem.free dev wrong;
    Mem.free dev ok
  end
  else begin
    let buf = Mem.cuda_malloc ~tag:"recv_buf" dev ~ty:Typeart.Typedb.F64 ~count:32 in
    Mpi.recv ctx ~buf ~count:16 ~dt:Mpisim.Datatype.double ~src:0 ~tag:0;
    (* Bug 2 (count overflow check): the declared receive window behind
       an interior pointer exceeds the allocation. The 4-double message
       happens to fit, so only MUST's TypeART check complains — exactly
       the dormant-bug class the paper's Fig. 2 setup targets. *)
    let interior = Memsim.Ptr.add buf ~elt:8 24 in
    Mpi.recv ctx ~buf:interior ~count:16 ~dt:Mpisim.Datatype.double ~src:0 ~tag:1;
    Mem.free dev buf
  end

let () =
  Fmt.pr "MUST + TypeART datatype checks@.";
  let res =
    R.run ~nranks:2 ~check_types:true ~flavor:Harness.Flavor.Must_cusan program
  in
  match res.R.must_errors with
  | [] -> Fmt.pr "no findings (unexpected!)@."
  | errs ->
      Fmt.pr "%d finding(s):@." (List.length errs);
      List.iter (fun e -> Fmt.pr "  %s@." (Fmt.str "%a" Must.Errors.pp e)) errs
