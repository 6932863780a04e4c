(* A pointer: an allocation plus a byte offset. The numeric address is
   what flows to the race detector and to TypeART, like a raw void* in
   the original system. *)

type t = { alloc : Alloc.t; off : int }

exception Out_of_bounds of string

let make alloc = { alloc; off = 0 }

let addr t = Alloc.base t.alloc + t.off

let space t = t.alloc.Alloc.space

let remaining t = t.alloc.Alloc.size - t.off

let check t bytes =
  Alloc.check_live t.alloc;
  if t.off < 0 || t.off + bytes > t.alloc.Alloc.size then
    raise
      (Out_of_bounds
         (Fmt.str "%a + %d..%d" Alloc.pp t.alloc t.off (t.off + bytes)))

(* Element [i] of [elt] bytes: [check] covers its end, and a negative
   [i] must not start it before the allocation. *)
let check_elt t ~elt i =
  check t ((i + 1) * elt);
  let lo = t.off + (i * elt) in
  if lo < 0 then
    raise
      (Out_of_bounds (Fmt.str "%a + %d..%d" Alloc.pp t.alloc lo (lo + elt)))

let add_bytes t b = { t with off = t.off + b }

(* Pointer arithmetic in elements of [elt] bytes. *)
let add t ~elt n = add_bytes t (elt * n)

let pp ppf t = Fmt.pf ppf "%a+%d" Alloc.pp t.alloc t.off

let equal a b = a.alloc.Alloc.id = b.alloc.Alloc.id && a.off = b.off
