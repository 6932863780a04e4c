(** Per-domain caches keyed by the identity of a KIR module.

    KIR modules are immutable, so anything computed purely from one can
    be computed once and reused by every later run in the same process.
    A cache is keyed by physical identity ([==]), not structure: a
    lookup compares pointers and never walks the IR. Each domain has its
    own cache, so sharded runners need no locks.

    A cache holds the {!capacity} most recently used modules and drops
    the least recently used one when a new module arrives, so modules
    built and dropped in a loop (repair candidates, generated tests)
    stay bounded in memory. *)

type 'a t

val capacity : int

val create : unit -> 'a t

val find_or_add : 'a t -> Ir.modul -> (Ir.modul -> 'a) -> 'a
(** [find_or_add t m compute] is the value cached for [m] in the current
    domain, computing and caching [compute m] on a miss. An exception
    from [compute] propagates and caches nothing. *)
