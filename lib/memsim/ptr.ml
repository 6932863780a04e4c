(* A pointer: an allocation plus a byte offset. The numeric address is
   what flows to the race detector and to TypeART, like a raw void* in
   the original system. *)

type t = { alloc : Alloc.t; off : int }

exception Out_of_bounds of string

let make alloc = { alloc; off = 0 }

let addr t = Alloc.base t.alloc + t.off

let space t = t.alloc.Alloc.space

let remaining t = t.alloc.Alloc.size - t.off

(* Names a rejected request of [n] elements of [elt] bytes at the
   pointer: as a byte range when its end is an int, and as a count when
   a hostile [n] would wrap it. *)
let out_of_bounds t ~elt n =
  let lo = t.off in
  raise
    (Out_of_bounds
       (if n >= 0 && n <= max_int / elt && lo <= max_int - (n * elt) then
          Fmt.str "%a + %d..%d" Alloc.pp t.alloc lo (lo + (n * elt))
        else Fmt.str "%a + %d, %d x %d bytes" Alloc.pp t.alloc lo n elt))

(* [count] is compared against the whole elements left, by division, so
   no sum or product of a hostile request can wrap past the check. *)
let check_count t ~elt count =
  Alloc.check_live t.alloc;
  let size = t.alloc.Alloc.size in
  if count < 0 || t.off < 0 || t.off > size || count > (size - t.off) / elt
  then out_of_bounds t ~elt count

let check t bytes = check_count t ~elt:1 bytes

(* 2^58 bytes, far more than an allocation holds (Alloc.addr_shift): a
   pointer or an element index farther out than this addresses nothing
   (C leaves forming such a pointer undefined). *)
let far = max_int asr 4

(* Element [i] of [elt] bytes (at most 8) covers [lo, lo + elt) with
   lo = off + i * elt. An offset or an index beyond [far] is rejected
   first, so that neither the product nor the sum can wrap, and a
   negative [i] may not start the element before the allocation. *)
let check_elt t ~elt i =
  Alloc.check_live t.alloc;
  if t.off < -far || t.off > far || i < -far || i > far then
    raise
      (Out_of_bounds
         (Fmt.str "%a + %d, element %d of %d bytes" Alloc.pp t.alloc t.off i
            elt));
  let lo = t.off + (i * elt) in
  if lo < 0 || lo > t.alloc.Alloc.size - elt then
    raise
      (Out_of_bounds (Fmt.str "%a + %d..%d" Alloc.pp t.alloc lo (lo + elt)))

let add_bytes t b = { t with off = t.off + b }

(* Pointer arithmetic in elements of [elt] bytes. *)
let add t ~elt n = add_bytes t (elt * n)

let pp ppf t = Fmt.pf ppf "%a+%d" Alloc.pp t.alloc t.off

let equal a b = a.alloc.Alloc.id = b.alloc.Alloc.id && a.off = b.off
