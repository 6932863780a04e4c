(* Typed memory accessors.

   The [get_*]/[set_*] family models *instrumented host code*: each call
   fires the read/write hooks that a sanitizer compiler pass would have
   inserted, and enforces that host code only dereferences
   host-accessible memory (dereferencing a device pointer on the host is
   the simulated segfault). The [raw_*] family models accesses the
   sanitizer cannot see: device-side code and DMA transfers, which is
   exactly why CuSan/MUST must annotate them (paper, Section II-B). *)

exception Host_access_to_device of string

let check_host (p : Ptr.t) bytes =
  Ptr.check p bytes;
  if not (Space.host_accessible (Ptr.space p)) then
    raise (Host_access_to_device (Fmt.str "%a" Ptr.pp p))

let f64_size = 8
let f32_size = 4
let i32_size = 4
let i64_size = 8

(* --- raw accessors: no hooks, no host/device policing ------------- *)

let raw_get_f64 (p : Ptr.t) i =
  Ptr.check p ((i + 1) * 8);
  Int64.float_of_bits (Bytes.get_int64_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 8)))

let raw_set_f64 (p : Ptr.t) i v =
  Ptr.check p ((i + 1) * 8);
  Bytes.set_int64_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 8)) (Int64.bits_of_float v)

let raw_get_i32 (p : Ptr.t) i =
  Ptr.check p ((i + 1) * 4);
  Int32.to_int (Bytes.get_int32_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)))

let raw_set_i32 (p : Ptr.t) i v =
  Ptr.check p ((i + 1) * 4);
  Bytes.set_int32_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)) (Int32.of_int v)

let raw_get_f32 (p : Ptr.t) i =
  Ptr.check p ((i + 1) * 4);
  Int32.float_of_bits (Bytes.get_int32_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)))

let raw_set_f32 (p : Ptr.t) i v =
  Ptr.check p ((i + 1) * 4);
  Bytes.set_int32_le p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)) (Int32.bits_of_float v)

(* Checked extent for loops over f64 elements: one [Ptr.check] covering
   elements [0, count), then the backing bytes and the byte offset of
   element 0. Cross-module calls are never inlined under dune's dev
   profile (-opaque), so a per-element [raw_get_f64] boxes its result
   and re-checks liveness on every call; a caller that checks its
   extent once and reads through [Bytes.get_int64_le] and
   [Int64.float_of_bits] (which do inline) keeps its floats unboxed.
   An empty extent touches nothing and so checks nothing, like a
   per-element loop that never runs. *)
let f64_extent (p : Ptr.t) ~count =
  if count > 0 then Ptr.check p (count * f64_size);
  (p.Ptr.alloc.Alloc.data, p.Ptr.off)

(* --- instrumented host accessors ----------------------------------- *)

let get_f64 p i =
  check_host p ((i + 1) * 8);
  Hooks.fire_read (Ptr.add_bytes p (i * 8)) 8;
  raw_get_f64 p i

let set_f64 p i v =
  check_host p ((i + 1) * 8);
  Hooks.fire_write (Ptr.add_bytes p (i * 8)) 8;
  raw_set_f64 p i v

let get_i32 p i =
  check_host p ((i + 1) * 4);
  Hooks.fire_read (Ptr.add_bytes p (i * 4)) 4;
  raw_get_i32 p i

let set_i32 p i v =
  check_host p ((i + 1) * 4);
  Hooks.fire_write (Ptr.add_bytes p (i * 4)) 4;
  raw_set_i32 p i v

(* Bulk instrumented host reads/writes (e.g. initialising a managed
   buffer with a host loop): one hook covering the range, then raw ops.
   Mirrors how compilers vectorise instrumentation for plain loops. *)

let read_range p bytes =
  check_host p bytes;
  Hooks.fire_read p bytes

let write_range p bytes =
  check_host p bytes;
  Hooks.fire_write p bytes

(* --- invisible bulk operations (device / DMA) ---------------------- *)

let raw_blit ~(src : Ptr.t) ~(dst : Ptr.t) ~bytes =
  Ptr.check src bytes;
  Ptr.check dst bytes;
  Bytes.blit src.Ptr.alloc.Alloc.data src.Ptr.off dst.Ptr.alloc.Alloc.data
    dst.Ptr.off bytes

let raw_fill (p : Ptr.t) ~bytes ~byte =
  Ptr.check p bytes;
  Bytes.fill p.Ptr.alloc.Alloc.data p.Ptr.off bytes (Char.chr (byte land 0xff))
