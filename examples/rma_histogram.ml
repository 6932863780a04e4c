(* One-sided communication example: a distributed histogram built with
   MPI_Accumulate into a window on rank 0, plus what MUST's RMA
   extension reports when the fence discipline is violated.

   Concurrent MPI_Accumulate calls to the same location are legal (same
   operation), so the correct version is clean even though every rank
   updates the same bins in the same epoch. Reading the bins while the
   epoch is still open is a race.

     dune exec examples/rma_histogram.exe *)

let () = Trace.Cli.parse ~prog:"rma_histogram" [ Trace.Cli.trace ]

module R = Harness.Run
module Mpi = Mpisim.Mpi
module A = Memsim.Access

let bins = 8
let samples_per_rank = 256

let program ~read_too_early : R.app =
 fun env ->
  let ctx = env.R.mpi in
  let histo =
    Typeart.Pass.alloc ~tag:"histogram" Memsim.Space.Host_pageable
      Typeart.Typedb.F64 bins
  in
  let win = Mpi.win_create ctx ~buf:histo ~bytes:(bins * 8) in
  Mpi.win_fence ctx win;
  (* Every rank accumulates its local counts into rank 0's bins. *)
  let contribution =
    Typeart.Pass.alloc ~tag:"local_counts" Memsim.Space.Host_pageable
      Typeart.Typedb.F64 bins
  in
  for s = 0 to samples_per_rank - 1 do
    let b = (s * (ctx.Mpi.rank + 7)) mod bins in
    A.set_f64 contribution b (A.get_f64 contribution b +. 1.)
  done;
  Mpi.accumulate ctx win ~buf:contribution ~count:bins
    ~dt:Mpisim.Datatype.double ~op:Mpi.Sum ~target:0 ~disp:0;
  if read_too_early && ctx.Mpi.rank = 0 then
    (* BUG: the exposure epoch is still open. *)
    Fmt.pr "   (rank 0 peeks: bin0 = %g)@." (A.get_f64 histo 0);
  Mpi.win_fence ctx win;
  if ctx.Mpi.rank = 0 then begin
    let total = ref 0. in
    for b = 0 to bins - 1 do
      total := !total +. A.get_f64 histo b
    done;
    Fmt.pr "   total samples: %g (expected %d)@." !total
      (ctx.Mpi.size * samples_per_rank)
  end;
  Mpi.win_free ctx win

let () =
  Fmt.pr "Distributed histogram via MPI_Accumulate (3 ranks)@.";
  let run title read_too_early =
    Fmt.pr "@.== %s@." title;
    let res =
      R.run ~nranks:3 ~flavor:Harness.Flavor.Must (program ~read_too_early)
    in
    match res.R.races with
    | [] -> Fmt.pr "   no data races detected@."
    | races ->
        List.iter
          (fun (rank, r) ->
            Fmt.pr "   rank %d: %s@." rank (Tsan.Report.to_string r))
          races
  in
  run "correct: read after the closing fence" false;
  run "BUGGY: rank 0 reads a bin while the epoch is open" true
