(* A simulated allocation. Every allocation receives a disjoint virtual
   address range; the base encodes the allocation id so tools can map a
   raw address back to its allocation in O(1), mimicking how TSan and
   TypeART resolve interior pointers. *)

(* log2 of the maximum allocation size (64 GiB); bases are spaced by this. *)
let addr_shift = 36

type t = {
  id : int;
  space : Space.t;
  size : int; (* bytes *)
  data : floatarray;
      (* ceil(size / 8) little-endian 64-bit words: byte k is byte
         [k land 7] of word [k lsr 3]. Only [Access] reads it. *)
  tag : string; (* provenance label for reports, e.g. "d_a" *)
  mutable freed : bool;
}

let base t = (t.id + 1) lsl addr_shift
let limit t = base t + t.size
let id_of_addr addr = (addr lsr addr_shift) - 1

exception Use_after_free of string

let check_live t =
  if t.freed then raise (Use_after_free t.tag)

let pp ppf t =
  Fmt.pf ppf "%s#%d[%a,%dB@0x%x]" t.tag t.id Space.pp t.space t.size (base t)
