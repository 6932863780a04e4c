(** Static well-formedness checks on a KIR module: name resolution,
    call arity, pointer/scalar typing, and barrier placement — the IR
    verifier run before analysis or execution.

    Barriers ([__syncthreads]) must be reached by every thread of the
    launch, so a barrier under tid-divergent control flow is rejected:
    the enclosing conditions and loop bounds must be *uniform*
    (constant over tid — conservatively, expressions that neither read
    [tid] nor load from memory). Calls into barrier-containing device
    functions are held to the same rule and must pass uniform
    arguments. *)

exception Invalid of string

val check_module : Ir.modul -> unit
(** @raise Invalid on unbound locals, out-of-range parameters, arity or
    type mismatches at calls, duplicate functions, kernel entries that
    are not defined, or barriers under tid-divergent control flow. *)
