(* Typed memory accessors.

   The [get_*]/[set_*] family models *instrumented host code*: each call
   fires the read/write hooks that a sanitizer compiler pass would have
   inserted, and enforces that host code only dereferences
   host-accessible memory (dereferencing a device pointer on the host is
   the simulated segfault). The [raw_*] family models accesses the
   sanitizer cannot see: device-side code and DMA transfers, which is
   exactly why CuSan/MUST must annotate them (paper, Section II-B).

   This is the only module that knows the store format: an allocation is
   a [floatarray] of little-endian 64-bit words ([Alloc.data]). An f64 at
   an 8-aligned offset is one word and moves with [Float.Array.get]/[set];
   everything narrower or misaligned is emulated through the word bits. *)

exception Host_access_to_device of string
exception Misaligned_address of string

let check_host (p : Ptr.t) bytes =
  Ptr.check p bytes;
  if not (Space.host_accessible (Ptr.space p)) then
    raise (Host_access_to_device (Fmt.str "%a" Ptr.pp p))

let f64_size = 8
let f32_size = 4
let i32_size = 4
let i64_size = 8

(* --- the word store ------------------------------------------------- *)

(* [bits_of_float]/[float_of_bits] only move a word between a float and
   an integer register, with no float arithmetic, so every bit pattern,
   signalling NaNs included, survives the round trip. *)
let[@inline] word (a : floatarray) w =
  Int64.bits_of_float (Float.Array.get a w)

let[@inline] set_word (a : floatarray) w b =
  Float.Array.set a w (Int64.float_of_bits b)

(* The low [n] bytes of an int64, for [1 <= n <= 8]. *)
let[@inline] mask n =
  if n = 8 then -1L else Int64.pred (Int64.shift_left 1L (n * 8))

(* Little-endian load of [n] bytes ([1 <= n <= 8]) at byte [pos],
   zero-extended; spans two words when [pos] is not aligned. *)
let[@inline] load a pos n =
  let w = pos lsr 3 and k = pos land 7 in
  let lo = Int64.shift_right_logical (word a w) (k * 8) in
  let v =
    if k + n <= 8 then lo
    else Int64.logor lo (Int64.shift_left (word a (w + 1)) (64 - (k * 8)))
  in
  Int64.logand v (mask n)

(* Little-endian store of the low [n] bytes of [v] ([1 <= n <= 8]) at
   byte [pos]; the other bytes of the word(s) it touches are kept. *)
let[@inline] store a pos n v =
  let w = pos lsr 3 and k = pos land 7 in
  if k = 0 && n = 8 then set_word a w v
  else begin
    let m = mask n in
    let v = Int64.logand v m in
    let sh = k * 8 in
    set_word a w
      (Int64.logor
         (Int64.logand (word a w) (Int64.lognot (Int64.shift_left m sh)))
         (Int64.shift_left v sh));
    if k + n > 8 then
      set_word a (w + 1)
        (Int64.logor
           (Int64.logand (word a (w + 1))
              (Int64.lognot (Int64.shift_right_logical m (64 - sh))))
           (Int64.shift_right_logical v (64 - sh)))
  end

(* --- raw accessors: no hooks, no host/device policing ------------- *)

let raw_get_f64 (p : Ptr.t) i =
  Ptr.check p ((i + 1) * 8);
  let pos = p.Ptr.off + (i * 8) and a = p.Ptr.alloc.Alloc.data in
  if pos land 7 = 0 then Float.Array.get a (pos lsr 3)
  else Int64.float_of_bits (load a pos 8)

let raw_set_f64 (p : Ptr.t) i v =
  Ptr.check p ((i + 1) * 8);
  let pos = p.Ptr.off + (i * 8) and a = p.Ptr.alloc.Alloc.data in
  if pos land 7 = 0 then Float.Array.set a (pos lsr 3) v
  else store a pos 8 (Int64.bits_of_float v)

let get_bits32 (p : Ptr.t) i =
  Ptr.check p ((i + 1) * 4);
  Int64.to_int32 (load p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)) 4)

let set_bits32 (p : Ptr.t) i b =
  Ptr.check p ((i + 1) * 4);
  store p.Ptr.alloc.Alloc.data (p.Ptr.off + (i * 4)) 4 (Int64.of_int32 b)

let raw_get_i32 p i = Int32.to_int (get_bits32 p i)
let raw_set_i32 p i v = set_bits32 p i (Int32.of_int v)
let raw_get_f32 p i = Int32.float_of_bits (get_bits32 p i)
let raw_set_f32 p i v = set_bits32 p i (Int32.bits_of_float v)

(* Checked extent for loops over f64 elements: one [Ptr.check] covering
   elements [0, count), then the word store and the word index of
   element 0. Cross-module calls are never inlined under dune's dev
   profile (-opaque), so a per-element [raw_get_f64] boxes its result
   and re-checks liveness on every call; a caller that checks its
   extent once and indexes the words with [Float.Array.get]/[set]
   (bounds-checked primitives that inline) keeps its floats unboxed and
   makes no C call per element. The element must be a whole word, so the
   pointer must be 8-aligned, as for an 8-byte access on a GPU. An empty
   extent touches nothing and so checks nothing, like a per-element loop
   that never runs. *)
let f64_extent (p : Ptr.t) ~count =
  if count > 0 then begin
    Ptr.check p (count * f64_size);
    if p.Ptr.off land 7 <> 0 then
      raise (Misaligned_address (Fmt.str "%a" Ptr.pp p))
  end;
  (p.Ptr.alloc.Alloc.data, p.Ptr.off lsr 3)

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

(* [memmove] of [n] bytes from byte [s] of [sa] to byte [d] of [da]: the
   first [8 * full] bytes as whole 8-byte pieces, then a [tail] of up to 7
   bytes. When both ends are word-aligned the pieces are whole words and
   move in one [Float.Array.blit], itself a memmove. When the
   destination lies above an overlapping source, pieces go last to
   first (the tail before the words), so no source byte is overwritten
   before it is read. *)
let move sa s da d n =
  let piece o m = store da (d + o) m (load sa (s + o) m) in
  let full = n lsr 3 and tail = n land 7 in
  let backward = sa == da && d > s in
  let words () =
    if s land 7 = 0 && d land 7 = 0 then
      Float.Array.blit sa (s lsr 3) da (d lsr 3) full
    else if backward then
      for i = full - 1 downto 0 do
        piece (i * 8) 8
      done
    else
      for i = 0 to full - 1 do
        piece (i * 8) 8
      done
  in
  if backward then begin
    if tail > 0 then piece (full * 8) tail;
    words ()
  end
  else begin
    words ();
    if tail > 0 then piece (full * 8) tail
  end

let raw_blit ~(src : Ptr.t) ~(dst : Ptr.t) ~bytes =
  Ptr.check src bytes;
  Ptr.check dst bytes;
  move src.Ptr.alloc.Alloc.data src.Ptr.off dst.Ptr.alloc.Alloc.data
    dst.Ptr.off bytes

let raw_fill (p : Ptr.t) ~bytes ~byte =
  Ptr.check p bytes;
  let a = p.Ptr.alloc.Alloc.data and d = p.Ptr.off in
  let pattern =
    Int64.mul (Int64.of_int (byte land 0xff)) 0x0101_0101_0101_0101L
  in
  let full = bytes lsr 3 and tail = bytes land 7 in
  if d land 7 = 0 then
    Float.Array.fill a (d lsr 3) full (Int64.float_of_bits pattern)
  else
    for i = 0 to full - 1 do
      store a (d + (i * 8)) 8 pattern
    done;
  if tail > 0 then store a (d + (full * 8)) tail pattern

(* Checked snapshot and restore of a byte range, for transfers that
   leave simulated memory (MPI messages, checkpoints). *)

let raw_read_bytes (p : Ptr.t) ~bytes =
  Ptr.check p bytes;
  let a = p.Ptr.alloc.Alloc.data and s = p.Ptr.off in
  let b = Bytes.create bytes and full = bytes lsr 3 in
  for i = 0 to full - 1 do
    Bytes.set_int64_le b (i * 8) (load a (s + (i * 8)) 8)
  done;
  for o = full * 8 to bytes - 1 do
    Bytes.set_uint8 b o (Int64.to_int (load a (s + o) 1))
  done;
  b

let raw_write_bytes (p : Ptr.t) b =
  let bytes = Bytes.length b in
  Ptr.check p bytes;
  let a = p.Ptr.alloc.Alloc.data and d = p.Ptr.off and full = bytes lsr 3 in
  for i = 0 to full - 1 do
    store a (d + (i * 8)) 8 (Bytes.get_int64_le b (i * 8))
  done;
  for o = full * 8 to bytes - 1 do
    store a (d + o) 1 (Int64.of_int (Bytes.get_uint8 b o))
  done
