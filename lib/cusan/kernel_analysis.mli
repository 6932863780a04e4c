(** The device-code part of the CuSan compiler pass (paper, Section
    IV-B1): a conservative interprocedural forward-dataflow analysis
    classifying every pointer argument of a kernel as read, write,
    read/write — or untouched.

    Pointer values flow from parameters through let-bindings, pointer
    arithmetic and calls into nested device functions (Fig. 8): the
    analysis follows each argument's data flow and joins the access
    modes found at loads and stores. Both branches of a conditional and
    every loop body are taken (may-analysis), so the result
    over-approximates any concrete execution's footprint — a property
    the test suite checks against the IR interpreter. *)

type access = { mutable reads : bool; mutable writes : bool }

type summary = access option array
(** Per parameter by position; scalar parameters map to [None]. *)

val as_kernel_access : access -> Cudasim.Kernel.access option
(** [None] when the pointer is never dereferenced. *)

val analyze : Kir.Ir.modul -> entry:string -> summary
(** Analyze one kernel. Call-graph cycles (including mutual recursion)
    are resolved by a summary fixpoint ascending from the bottom
    "untouched" summary, so recursive functions get exactly the
    accesses their bodies perform. *)
