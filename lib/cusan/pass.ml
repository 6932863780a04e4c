(* The host-code part of the CuSan compiler pass (paper, Section IV-B2
   and Fig. 9): after the device pass has produced per-argument access
   attributes, instrument every kernel launch site with them.

   In the simulator, "instrumenting" a kernel means attaching the
   analysis result to the kernel object; the launch interception in
   [Runtime] then receives it like the cusan_kernel_register callback
   would. Kernels without device IR (pure fat-binary) stay unanalyzed
   and are handled conservatively at launch time.

   The paper's device pass runs once, when the binary is built. Here
   the validation and both analyses run once per module and entry in
   each domain: they are pure functions of the immutable IR, so every
   later kernel object built from the same module gets the cached
   result. Witness replay is not cached: it allocates scratch buffers
   in the running program's simulated heap. *)

type analysis = {
  access : Cudasim.Kernel.access option array;
  races : Race_analysis.race list;
  verdicts : (Cudasim.Kernel.race_verdict * string) list;
      (* [races] as attached without witness replay *)
}

let analyze m ~entry =
  let summary = Kernel_analysis.analyze m ~entry in
  let races = Race_analysis.analyze m ~entry in
  {
    access = Array.map (fun a -> Option.bind a Kernel_analysis.as_kernel_access) summary;
    races;
    verdicts =
      List.map
        (fun r ->
          ( (match r.Race_analysis.verdict with
            | Race_analysis.Must -> Cudasim.Kernel.Must_race
            | Race_analysis.May -> Cudasim.Kernel.May_race),
            Race_analysis.describe r ))
        races;
  }

(* Per module: the analyses of the entries seen so far. A module gets
   its table only once it has validated, so an invalid module raises on
   every call. *)
let memo : (string, analysis) Hashtbl.t Kir.Memo.t = Kir.Memo.create ()

let analysis m ~entry =
  let entries =
    Kir.Memo.find_or_add memo m (fun m ->
        Kir.Validate.check_module m;
        Hashtbl.create 4)
  in
  match Hashtbl.find_opt entries entry with
  | Some a -> a
  | None ->
      let a = analyze m ~entry in
      Hashtbl.replace entries entry a;
      a

(* Witness mode: any candidate the replay validates is Proved; a Must
   that fails to validate is downgraded to May with the solver's
   diagnostic — the zero-false-positive direction. *)
let prove_race m ~entry r =
  match Witness.prove m ~entry r with
  | Witness.Proved w ->
      ( Cudasim.Kernel.Proved_race,
        Fmt.str "%s; witness: %s" (Race_analysis.describe r) (Witness.describe w) )
  | Witness.Unproved why -> (
      match r.Race_analysis.verdict with
      | Race_analysis.Must ->
          ( Cudasim.Kernel.May_race,
            Fmt.str "%s; downgraded from must: %s" (Race_analysis.describe r) why )
      | Race_analysis.May -> (Cudasim.Kernel.May_race, Race_analysis.describe r))

let instrument_kernel ?(prove = false) (k : Cudasim.Kernel.t) =
  match k.Cudasim.Kernel.kir with
  | None -> ()
  | Some (m, entry) ->
      let a = analysis m ~entry in
      (* a copy, so kernel objects never share a mutable array *)
      k.Cudasim.Kernel.access <- Some (Array.copy a.access);
      k.Cudasim.Kernel.static_races <-
        Some (if prove then List.map (prove_race m ~entry) a.races else a.verdicts)
