(** Runs an application under a tool configuration and collects the
    paper's measurements: runtime, resident memory at [MPI_Finalize],
    race reports, MUST findings, and the Table I event counters. *)

type env = {
  mpi : Mpisim.Mpi.ctx;
  dev : Cudasim.Device.t;  (** this rank's CUDA device *)
  compile : Cudasim.Kernel.t -> Cudasim.Kernel.t;
      (** stands in for building the binary with the CuSan compiler
          pass: attaches the kernel access analysis when the flavor
          includes CuSan, and is the identity otherwise *)
}
(** The per-rank environment an application runs in. *)

type app = env -> unit

val parallel : env -> (unit -> unit) list -> unit
(** Run each function as an additional host thread of the calling rank
    and wait for all of them — MPI_THREAD_MULTIPLE-style hybrid code,
    the "X" of MPI + X. Each host thread gets its own race-detector
    fiber with thread-creation/join synchronization, and its own default
    stream when the device runs in {!Cudasim.Device.Per_thread} mode. *)

type post_mortem = {
  pm_rank : int;
  pm_site : string;  (** the fault site whose [:crash] action fired *)
  pm_trace : string list;
      (** last flight-recorder events of the rank; empty unless a
          {!Trace.Recorder} was enabled during the run *)
  pm_pending : string list;  (** pending (incomplete) requests at death *)
  pm_unjoined : string list;  (** host threads of the rank never joined *)
}
(** What a crashed rank leaves behind, captured by the supervisor at the
    crash site before the rank's threads are reaped. *)

val pp_post_mortem : Format.formatter -> post_mortem -> unit

type result = {
  flavor : Flavor.t;
  nranks : int;
  wall_s : float;  (** raw wall time of the whole (serialized) simulation *)
  proc_s : float;
      (** estimated per-process runtime with the paper's measurement
          semantics: host work (wall time minus the CPU cost of
          executing device-op bodies — an artifact of simulating the GPU
          on the host) plus the cost model's virtual device time,
          divided across ranks (real ranks run in parallel) *)
  device_exec_s : float;  (** summed over ranks: real CPU time in op bodies *)
  device_virtual_s : float;  (** summed over ranks: modelled device time *)
  rss_bytes : int;
      (** max over ranks, measured at [MPI_Finalize] like the paper's
          Fig. 11: the rank's share of peak allocations plus everything
          the tools added (materialized shadow, sync clocks, TypeART) *)
  races : (int * Tsan.Report.t) list;  (** (rank, deduplicated report) *)
  race_events : int;  (** raw race events across ranks *)
  must_errors : Must.Errors.t list;
  tsan_counters : Tsan.Counters.t;  (** rank 0, like Table I *)
  cuda_counters : Cusan.Counters.t;  (** rank 0 *)
  tracked_read_bytes : int;  (** summed over ranks, for Fig. 12 *)
  tracked_write_bytes : int;
  deadlock : (string * string) list option;
      (** blocked (task, blocked-call) pairs when the run deadlocked *)
  failures : (int * string) list;
      (** rank-level failures (CUDA errors, MPI aborts, simulation
          errors) captured with rank provenance; the rank's counters and
          already-found reports are still flushed into this result *)
  post_mortems : post_mortem list;
      (** one per crashed ([:crash]) rank, in crash order; survivors
          still produce their normal reports alongside *)
  stall : Sched.Scheduler.stall option;
      (** wait-for diagnostic when the watchdog stopped a livelock or
          partial hang *)
  fault_log : Faultsim.Injector.decision list;
      (** injected-fault replay log: with the arming [(seed, plan)], it
          reproduces the run exactly *)
  history : (string * string list) list;
      (** flight-recorder context for blocked tasks on deadlock/stall:
          [(what-blocked, recent event lines)] per task; empty unless a
          {!Trace.Recorder} was enabled during the run *)
  static_races : (string * Cudasim.Kernel.race_verdict * string) list;
      (** [(kernel, verdict, description)]: intra-kernel races the
          static race analysis attached at compile time, deduplicated
          across ranks; empty when the flavor does not run the CuSan
          pass *)
}

val has_races : result -> bool

val static_musts : result -> (string * string) list
(** [(kernel, description)] of the static must- and proved-races — the
    verdicts strong enough to fail a run. *)

val has_static_musts : result -> bool

val run :
  ?nranks:int ->
  ?mode:Cudasim.Device.mode ->
  ?default_stream_mode:Cudasim.Device.default_mode ->
  ?suppressions:string list ->
  ?check_types:bool ->
  ?baseline_rss:int ->
  ?granule:int ->
  ?annotation:Cusan.Runtime.annotation_mode ->
  ?max_range_bytes:int ->
  ?watchdog:int ->
  ?picker:Sched.Scheduler.picker ->
  ?access_observer:(kind:[ `Read | `Write ] -> addr:int -> len:int -> unit) ->
  ?mpi_observer:(rank:int -> Mpisim.Hooks.phase -> Mpisim.Hooks.call -> unit) ->
  ?faults:int * Faultsim.Plan.t ->
  ?prove_static:bool ->
  flavor:Flavor.t ->
  app ->
  result
(** Execute [app] on [nranks] ranks (default 2) under [flavor],
    installing exactly the instrumentation that configuration implies:
    TSan host instrumentation and allocator interception, MUST's PMPI
    hooks, CuSan's device hooks and the TypeART runtime.

    [baseline_rss] adds a constant to every rank's memory measurement,
    standing in for the CUDA-driver/MPI-library mappings that dominate a
    real process's RSS (default 0: raw simulator numbers). [granule] and
    [max_range_bytes] are the ablation knobs of the bench harness.

    [watchdog] bounds scheduling steps: livelocks and partial hangs end
    in [result.stall] instead of running forever.

    [picker] overrides the scheduler's FIFO dispatch (see
    {!Sched.Scheduler.run}); [access_observer] is installed on every
    rank's race detector ({!Tsan.Detector.set_observer});
    [mpi_observer] is registered as a PMPI hook after the harness clears
    the hook registries. All three exist for the schedule explorer,
    which records decision traces and the dependency-relevant events of
    each run. [faults] arms the
    deterministic fault injector with [(seed, plan)] for this run only;
    the firing log lands in [result.fault_log]. Rank-level failures are
    captured in [result.failures] — the harness itself never aborts on
    them, and the dead rank's tool state is still flushed.

    [prove_static] (default [false]) runs the compile-time race
    analysis in witness mode: static candidates are validated by
    interpreter replay and attached as [Proved_race] (or downgraded —
    see {!Cusan.Pass.instrument_kernel}). Off by default because the
    replay costs interpreter runs per candidate. *)
