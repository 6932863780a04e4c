(** Pointers: an allocation plus a byte offset. The numeric address is
    what flows to the race detector and TypeART, like a raw [void*]. *)

type t = { alloc : Alloc.t; off : int }

exception Out_of_bounds of string

val make : Alloc.t -> t
(** Pointer to the start of an allocation. *)

val addr : t -> int
(** The simulated virtual address. *)

val space : t -> Space.t
val remaining : t -> int

val check : t -> int -> unit
(** [check p bytes] validates liveness and that [bytes] fit from the
    pointer's offset.
    @raise Alloc.Use_after_free
    @raise Out_of_bounds *)

val check_elt : t -> elt:int -> int -> unit
(** [check_elt p ~elt i] validates liveness and that element [i] of
    [elt] bytes lies inside the allocation: [check p ((i + 1) * elt)],
    and a negative [i] may not reach before its start.
    @raise Alloc.Use_after_free
    @raise Out_of_bounds naming the allocation and the element's byte
    range *)

val add_bytes : t -> int -> t

val add : t -> elt:int -> int -> t
(** Pointer arithmetic in elements of [elt] bytes. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
