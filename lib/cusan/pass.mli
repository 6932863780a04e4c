(** The host-code part of the CuSan compiler pass (paper, Section IV-B2
    and Fig. 9): after the device pass produced per-argument access
    attributes, instrument every kernel launch site with them.

    In the simulator, "instrumenting" a kernel attaches the analysis
    result to the kernel object; launch interception then receives it
    like the [cusan_kernel_register] callback would. *)

val instrument_kernel : ?prove:bool -> Cudasim.Kernel.t -> unit
(** Validate the kernel's device IR, run {!Kernel_analysis} and attach
    the access attributes, then run {!Race_analysis} and attach the
    static intra-kernel race summary. A no-op for kernels without IR
    (pure fat-binary), which stay unanalyzed and are handled
    conservatively at launch.

    Like the paper's pass, which runs once at build time, validation and
    both analyses run once per module (by physical identity, see
    {!Kir.Memo}) and entry in each domain; later kernel objects from the
    same module get the cached result. A module that fails validation
    is not cached and raises again on the next call.

    With [~prove:true] (default [false], which leaves the attached
    verdicts exactly as before), every race candidate is handed to the
    {!Witness} solver on every call, never from a cache: the solver
    allocates scratch buffers in the running program's simulated heap.
    Validated candidates are attached as [Proved_race] with the witness
    description appended, and a Must the replay cannot validate is
    downgraded to [May_race] with the solver's diagnostic.
    @raise Kir.Validate.Invalid on ill-formed IR. *)
