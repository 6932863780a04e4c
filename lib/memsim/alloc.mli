(** A simulated allocation.

    Every allocation receives a disjoint virtual address range whose
    base encodes the allocation id, so tools can resolve a raw address
    back to its allocation in O(1) — how TSan and TypeART handle
    interior pointers. *)

val addr_shift : int
(** log2 of the spacing between allocation bases (one allocation per
    [2^addr_shift] slot). *)

type t = {
  id : int;
  space : Space.t;
  size : int;  (** bytes *)
  data : floatarray;
      (** Backing store: [ceil (size / 8)] little-endian 64-bit words, so
          byte [k] of the allocation is byte [k land 7] of word [k lsr 3]
          and an f64 at an 8-aligned offset is exactly one word. Only
          {!Access} reads or writes it; everything else goes through the
          checked accessors there. *)
  tag : string;  (** provenance label for reports, e.g. ["d_a"] *)
  mutable freed : bool;
}

exception Use_after_free of string

val base : t -> int
(** First address of the allocation. *)

val limit : t -> int
(** One past the last address. *)

val id_of_addr : int -> int
(** The allocation id encoded in an address. *)

val check_live : t -> unit
(** @raise Use_after_free when the allocation was freed. *)

val pp : Format.formatter -> t -> unit
