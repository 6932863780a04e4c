(** Virtual device timing.

    The simulator executes kernels on the host CPU, but on the paper's
    testbed (NVIDIA V100) device work runs on the GPU: a process's wall
    time contains only host work plus the time spent waiting for the
    device. The device therefore accounts, per operation, both the real
    CPU time of executing the op body (subtracted by the harness as a
    simulation artifact) and a virtual duration from this calibrated
    cost model (added back). Constants are rough V100-class figures —
    calibration knobs, not measurements; EXPERIMENTS.md reports them
    alongside results. *)

val kernel : grid:int -> float
(** Virtual duration of a kernel over [grid] threads. *)

val memcpy : src:Memsim.Space.t -> dst:Memsim.Space.t -> bytes:int -> float
(** PCIe bandwidth when host memory is involved, on-device bandwidth for
    device-to-device copies. *)

val memset : bytes:int -> float
