(** Interpreter for KIR kernels.

    Executes a kernel body once per thread index, as the device would,
    against the simulated address space. Device code must only
    dereference device-accessible memory (device or managed); touching a
    host pointer raises {!Device_fault} — the simulated illegal-address
    error.

    Pointer arithmetic and f64 loads/stores address 8-byte elements;
    [Loadi]/[Storei] address 4-byte lanes relative to the same pointer.
    The optional tracer reports each touched location, which property
    tests use to check the static kernel access analysis against real
    footprints.

    A module is compiled into closures the first time a domain runs it
    (cached in a {!Memo} by physical identity): locals live in frame
    slots, callees and each function's "reaches a barrier" flag are
    resolved once, and binops are bound to their operator. Compiling
    never raises. Execution keeps the order of a direct walk of the IR:
    the pointer, index and value of a load or store, the operands of
    [Ptradd] and the bounds of a loop run left to right, binop operands
    right to left, call arguments left to right. Each error raises the
    same exception with the same message at the point where that walk
    raises it: [Runtime_error] for an unbound local, an undefined
    function or kernel, a parameter index past the arguments, a scalar
    or pointer in the other's place, and integer division or mod by
    zero; {!Device_fault} for host memory; and whatever indexing the
    arguments or the memory raises (e.g. [Memsim.Ptr.Out_of_bounds]). *)

exception Device_fault of string
exception Runtime_error of string

type value = VInt of int | VFlt of float | VPtr of Memsim.Ptr.t
(** Runtime values; also the kernel-launch argument type. *)

val pp_value : Format.formatter -> value -> unit

type tracer = {
  on_read : Memsim.Ptr.t -> bytes:int -> unit;
  on_write : Memsim.Ptr.t -> bytes:int -> unit;
}

val no_trace : tracer

val run_thread :
  ?tracer:tracer ->
  ?on_barrier:(unit -> unit) ->
  Ir.modul ->
  name:string ->
  args:value array ->
  tid:int ->
  ntid:int ->
  unit
(** Execute one thread of the kernel to completion. [on_barrier] fires
    each time the thread executes a [Barrier]; the default ignores
    barriers, which is only meaningful for single-thread replay (e.g.
    tagging a per-thread trace with a phase counter). *)

type footprint_event = {
  ev_phase : int;  (** barriers the thread had executed at this access *)
  ev_addr : int;  (** absolute simulated address of the first byte *)
  ev_bytes : int;
  ev_write : bool;
}

val thread_footprint :
  Ir.modul ->
  name:string ->
  args:value array ->
  tid:int ->
  ntid:int ->
  footprint_event list
(** Replay one thread in isolation and return every byte range it
    touched, in program order, tagged with its dynamic barrier phase.
    Two isolated replays from the same initial memory expose exactly
    the cross-thread conflicts of one launch (same-phase accesses are
    unordered between threads); the witness validator and the repair
    oracle are built on this. *)

val run_kernel :
  ?tracer:tracer -> Ir.modul -> name:string -> args:value array -> grid:int -> unit
(** Execute the whole grid with barrier semantics: all live threads run
    to their next [Barrier] (or to completion) before any proceeds past
    it. Within a wave, threads run in tid order — the device's finer
    interleaving does not matter to the inter-kernel race model, which
    is the paper's scope; intra-kernel orderings are the static race
    analysis's concern. *)
