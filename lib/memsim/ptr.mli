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

val check_count : t -> elt:int -> int -> unit
(** [check_count p ~elt n] validates liveness and that [n] elements of
    [elt > 0] bytes fit from the pointer's offset: [n >= 0], the pointer
    lies inside its allocation or one past its end, and [n] is at most
    the whole elements left, compared by division, so no sum or product
    of a hostile [n] can wrap past the check.
    @raise Alloc.Use_after_free
    @raise Out_of_bounds naming the allocation and the request *)

val check : t -> int -> unit
(** [check p bytes] is [check_count p ~elt:1 bytes]. *)

val check_elt : t -> elt:int -> int -> unit
(** [check_elt p ~elt i] validates liveness and that element [i] of
    [elt] bytes ([1 <= elt <= 8]) lies inside the allocation; a negative
    [i] may not reach before its start. An offset or index beyond 2^58
    is out of bounds before any product is formed.
    @raise Alloc.Use_after_free
    @raise Out_of_bounds naming the allocation and the element's byte
    range *)

val add_bytes : t -> int -> t

val add : t -> elt:int -> int -> t
(** Pointer arithmetic in elements of [elt] bytes. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
