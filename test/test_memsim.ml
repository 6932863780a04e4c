(* Unit tests for the simulated address space. *)

open Memsim

let with_clean f =
  Heap.reset ();
  Hooks.clear ();
  Fun.protect ~finally:(fun () -> Hooks.clear (); Heap.reset ()) f

let alloc_roundtrip () =
  with_clean @@ fun () ->
  let p = Heap.alloc ~tag:"buf" Space.Host_pageable 64 in
  Access.set_f64 p 0 3.25;
  Access.set_f64 p 7 (-1.5);
  Alcotest.(check (float 0.)) "f64[0]" 3.25 (Access.get_f64 p 0);
  Alcotest.(check (float 0.)) "f64[7]" (-1.5) (Access.get_f64 p 7)

let i32_roundtrip () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pinned 16 in
  Access.set_i32 p 0 42;
  Access.set_i32 p 3 (-7);
  Alcotest.(check int) "i32[0]" 42 (Access.get_i32 p 0);
  Alcotest.(check int) "i32[3]" (-7) (Access.get_i32 p 3)

let f32_roundtrip () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 8 in
  Access.raw_set_f32 p 1 2.5;
  Alcotest.(check (float 0.)) "f32[1]" 2.5 (Access.raw_get_f32 p 1)

let device_host_deref_rejected () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 32 in
  (match Access.get_f64 p 0 with
  | _ -> Alcotest.fail "host read of device pointer must raise"
  | exception Access.Host_access_to_device _ -> ());
  match Access.set_f64 p 0 1.0 with
  | () -> Alcotest.fail "host write of device pointer must raise"
  | exception Access.Host_access_to_device _ -> ()

let managed_host_deref_allowed () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Managed 16 in
  Access.set_f64 p 1 9.0;
  Alcotest.(check (float 0.)) "managed" 9.0 (Access.get_f64 p 1)

let raw_access_ignores_space () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 16 in
  Access.raw_set_f64 p 0 5.0;
  Alcotest.(check (float 0.)) "raw device" 5.0 (Access.raw_get_f64 p 0)

let out_of_bounds () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pageable 16 in
  (match Access.get_f64 p 2 with
  | _ -> Alcotest.fail "oob must raise"
  | exception Ptr.Out_of_bounds _ -> ());
  match Access.raw_set_f64 (Ptr.add_bytes p (-8)) 0 0. with
  | () -> Alcotest.fail "negative offset must raise"
  | exception Ptr.Out_of_bounds _ -> ()

let use_after_free () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pageable 8 in
  Heap.free p;
  match Access.get_f64 p 0 with
  | _ -> Alcotest.fail "UAF must raise"
  | exception Alloc.Use_after_free _ -> ()

let double_free () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pageable 8 in
  Heap.free p;
  match Heap.free p with
  | () -> Alcotest.fail "double free must raise"
  | exception Alloc.Use_after_free _ -> ()

let interior_free_rejected () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pageable 16 in
  match Heap.free (Ptr.add_bytes p 8) with
  | () -> Alcotest.fail "interior free must raise"
  | exception Invalid_argument _ -> ()

let addresses_disjoint () =
  with_clean @@ fun () ->
  let a = Heap.alloc Space.Host_pageable 100 in
  let b = Heap.alloc Space.Device 100 in
  let abase = Ptr.addr a and bbase = Ptr.addr b in
  Alcotest.(check bool) "disjoint" true
    (abase + 100 <= bbase || bbase + 100 <= abase)

let find_by_addr () =
  with_clean @@ fun () ->
  let p = Heap.alloc ~tag:"x" Space.Device 64 in
  (match Heap.find_by_addr (Ptr.addr (Ptr.add_bytes p 10)) with
  | Some a -> Alcotest.(check string) "tag" "x" a.Alloc.tag
  | None -> Alcotest.fail "interior addr should resolve");
  (* past the end: not found *)
  match Heap.find_by_addr (Ptr.addr p + 64) with
  | None -> ()
  | Some _ -> Alcotest.fail "one-past-end should not resolve"

let uva_attributes () =
  Alcotest.(check bool) "device is device mem" true
    (Space.is_device_memory Space.Device);
  Alcotest.(check bool) "managed is device mem" true
    (Space.is_device_memory Space.Managed);
  Alcotest.(check bool) "pinned is host mem" false
    (Space.is_device_memory Space.Host_pinned);
  Alcotest.(check bool) "pageable host-accessible" true
    (Space.host_accessible Space.Host_pageable);
  Alcotest.(check bool) "device not host-accessible" false
    (Space.host_accessible Space.Device);
  Alcotest.(check bool) "pinned not device-accessible" false
    (Space.device_accessible Space.Host_pinned)

let hooks_fire () =
  with_clean @@ fun () ->
  let allocs = ref 0 and frees = ref 0 and reads = ref 0 and writes = ref 0 in
  Hooks.add
    {
      on_alloc = (fun _ -> incr allocs);
      on_free = (fun _ -> incr frees);
      on_read = (fun _ n -> reads := !reads + n);
      on_write = (fun _ n -> writes := !writes + n);
    };
  let p = Heap.alloc Space.Host_pageable 32 in
  Access.set_f64 p 0 1.;
  ignore (Access.get_f64 p 0);
  Access.write_range p 32;
  Access.read_range p 16;
  Heap.free p;
  Alcotest.(check int) "allocs" 1 !allocs;
  Alcotest.(check int) "frees" 1 !frees;
  Alcotest.(check int) "read bytes" (8 + 16) !reads;
  Alcotest.(check int) "write bytes" (8 + 32) !writes

let raw_does_not_fire_hooks () =
  with_clean @@ fun () ->
  let fired = ref false in
  Hooks.add
    {
      Hooks.nil with
      on_read = (fun _ _ -> fired := true);
      on_write = (fun _ _ -> fired := true);
    };
  let p = Heap.alloc Space.Host_pageable 32 in
  Access.raw_set_f64 p 0 1.;
  ignore (Access.raw_get_f64 p 0);
  Access.raw_blit ~src:p ~dst:(Ptr.add_bytes p 16) ~bytes:8;
  Access.raw_fill p ~bytes:8 ~byte:0;
  Alcotest.(check bool) "raw invisible to hooks" false !fired

let blit_and_fill () =
  with_clean @@ fun () ->
  let src = Heap.alloc Space.Host_pageable 32 in
  let dst = Heap.alloc Space.Device 32 in
  for i = 0 to 3 do
    Access.raw_set_f64 src i (float i)
  done;
  Access.raw_blit ~src ~dst ~bytes:32;
  for i = 0 to 3 do
    Alcotest.(check (float 0.)) "copied" (float i) (Access.raw_get_f64 dst i)
  done;
  Access.raw_fill dst ~bytes:32 ~byte:0;
  Alcotest.(check (float 0.)) "zeroed" 0. (Access.raw_get_f64 dst 2)

let accounting () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 1000 in
  let q = Heap.alloc Space.Host_pageable 500 in
  Alcotest.(check int) "live" 1500 (Heap.live_bytes ());
  Alcotest.(check int) "count" 2 (Heap.live_count ());
  Heap.free p;
  Alcotest.(check int) "after free" 500 (Heap.live_bytes ());
  Alcotest.(check int) "peak" 1500 (Heap.peak_bytes ());
  Heap.free q

let ptr_arith () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Host_pageable 64 in
  let q = Ptr.add p ~elt:8 3 in
  Access.raw_set_f64 q 0 7.0;
  Alcotest.(check (float 0.)) "aliases elt 3" 7.0 (Access.raw_get_f64 p 3);
  Alcotest.(check int) "remaining" 40 (Ptr.remaining q);
  Alcotest.(check bool) "equal" true (Ptr.equal q (Ptr.add_bytes p 24))

(* Checked extents: one check covers [0, count), the returned word index
   is element 0 of the (possibly offset) pointer, and liveness is part
   of the check. *)
let extent_exact () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 64 in
  Access.raw_set_f64 p 7 2.5;
  let w, o = Access.f64_extent p ~count:8 in
  Alcotest.(check int) "word of element 0" 0 o;
  Alcotest.(check (float 0.)) "element 7 through the words" 2.5
    (Float.Array.get w (o + 7))

let extent_one_past () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 64 in
  (match Access.f64_extent p ~count:9 with
  | _ -> Alcotest.fail "one element past the end must raise"
  | exception Ptr.Out_of_bounds _ -> ());
  match Access.f64_extent (Ptr.add p ~elt:8 1) ~count:8 with
  | _ -> Alcotest.fail "offset extent past the end must raise"
  | exception Ptr.Out_of_bounds _ -> ()

let extent_offset_base () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 64 in
  Access.raw_set_f64 p 3 9.0;
  let w, o = Access.f64_extent (Ptr.add p ~elt:8 3) ~count:5 in
  Alcotest.(check int) "base shifted by 3 elements" 3 o;
  Alcotest.(check (float 0.)) "element 0 aliases p[3]" 9.0
    (Float.Array.get w o)

let extent_use_after_free () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 64 in
  Heap.free p;
  (match Access.f64_extent p ~count:1 with
  | _ -> Alcotest.fail "extent over a freed allocation must raise"
  | exception Alloc.Use_after_free _ -> ());
  (* An empty extent touches nothing, so it checks nothing. *)
  ignore (Access.f64_extent p ~count:0)

(* Property: f64 round-trips through the byte representation. *)
let prop_f64_roundtrip =
  QCheck.Test.make ~name:"f64 roundtrip" ~count:200 QCheck.float (fun v ->
      Heap.reset ();
      let p = Heap.alloc Space.Host_pageable 8 in
      Access.raw_set_f64 p 0 v;
      let v' = Access.raw_get_f64 p 0 in
      Heap.reset ();
      (Float.is_nan v && Float.is_nan v') || v = v')

(* Property: addresses of live allocations never overlap. *)
let prop_disjoint_addrs =
  QCheck.Test.make ~name:"allocation ranges disjoint" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 10_000))
    (fun sizes ->
      Heap.reset ();
      let ptrs = List.map (fun s -> (Heap.alloc Space.Device s, s)) sizes in
      let ranges = List.map (fun (p, s) -> (Ptr.addr p, Ptr.addr p + s)) ptrs in
      let rec pairwise = function
        | [] -> true
        | (lo, hi) :: rest ->
            List.for_all (fun (lo', hi') -> hi <= lo' || hi' <= lo) rest
            && pairwise rest
      in
      let ok = pairwise ranges in
      Heap.reset ();
      ok)

(* --- the word store against the byte store it replaced ------------- *)

(* Reference model: the byte-backed store the word store replaced. An
   allocation is [size] bytes read and written with the stdlib's
   little-endian [Bytes] primitives, and [Bytes.blit] is a memmove. *)
module Byte_store = struct
  let get_f64 b o = Int64.float_of_bits (Bytes.get_int64_le b o)
  let set_f64 b o v = Bytes.set_int64_le b o (Int64.bits_of_float v)
  let get_i32 b o = Int32.to_int (Bytes.get_int32_le b o)
  let set_i32 b o v = Bytes.set_int32_le b o (Int32.of_int v)
  let get_f32 b o = Int32.float_of_bits (Bytes.get_int32_le b o)
  let set_f32 b o v = Bytes.set_int32_le b o (Int32.bits_of_float v)

  let fill b o ~bytes ~byte =
    Bytes.fill b o bytes (Char.chr (byte land 0xff))
end

(* One step of a trace. Allocation indices, offsets and lengths are raw
   draws, reduced against the allocation sizes when the step runs so
   that every step is in bounds; a fixed-width access to an allocation
   too small for it is skipped. *)
type op =
  | Set_f64 of int * int * int64 (* allocation, byte offset, bits *)
  | Get_f64 of int * int
  | Set_i32 of int * int * int
  | Get_i32 of int * int
  | Set_f32 of int * int * int32 (* allocation, byte offset, f32 bits *)
  | Get_f32 of int * int
  | Blit of int * int * int * int * int (* src, src off, dst, dst off, len *)
  | Fill of int * int * int * int (* allocation, offset, length, byte *)
  | Read of int * int * int (* allocation, offset, length *)
  | Write of int * int * string (* allocation, offset, data *)

let pp_op = function
  | Set_f64 (a, o, b) -> Printf.sprintf "set_f64 #%d+%d 0x%016Lx" a o b
  | Get_f64 (a, o) -> Printf.sprintf "get_f64 #%d+%d" a o
  | Set_i32 (a, o, v) -> Printf.sprintf "set_i32 #%d+%d %d" a o v
  | Get_i32 (a, o) -> Printf.sprintf "get_i32 #%d+%d" a o
  | Set_f32 (a, o, b) -> Printf.sprintf "set_f32 #%d+%d 0x%08lx" a o b
  | Get_f32 (a, o) -> Printf.sprintf "get_f32 #%d+%d" a o
  | Blit (a, s, b, d, n) ->
      Printf.sprintf "blit #%d+%d -> #%d+%d %dB" a s b d n
  | Fill (a, o, n, c) -> Printf.sprintf "fill #%d+%d %dB 0x%02x" a o n c
  | Read (a, o, n) -> Printf.sprintf "read #%d+%d %dB" a o n
  | Write (a, o, d) -> Printf.sprintf "write #%d+%d %S" a o d

let gen_trace =
  let open QCheck.Gen in
  let alloc = int_bound 3 and off = int_bound 47 and len = int_bound 47 in
  let f64_bits =
    frequency
      [
        (3, ui64);
        ( 2,
          oneofl
            [
              0x7FF0_0000_0000_0001L (* signalling NaN *);
              0xFFF0_0000_0000_0001L;
              0x7FF4_0000_0000_0000L;
              0x7FF8_0000_0000_0000L (* quiet NaN *);
              Int64.min_int (* -0. *);
              -1L;
            ] );
      ]
  in
  let f32_bits =
    frequency
      [ (3, ui32); (1, oneofl [ 0x7F80_0001l; 0x7FC0_0000l; Int32.min_int ]) ]
  in
  let blit a s b d n = Blit (a, s, b, d, n) in
  let op =
    frequency
      [
        (3, map3 (fun a o b -> Set_f64 (a, o, b)) alloc off f64_bits);
        (1, map2 (fun a o -> Get_f64 (a, o)) alloc off);
        (2, map3 (fun a o v -> Set_i32 (a, o, v)) alloc off int);
        (1, map2 (fun a o -> Get_i32 (a, o)) alloc off);
        (1, map3 (fun a o b -> Set_f32 (a, o, b)) alloc off f32_bits);
        (1, map2 (fun a o -> Get_f32 (a, o)) alloc off);
        (* within one allocation, overlapping in either direction *)
        (3, (fun a s d n -> blit a s a d n) <$> alloc <*> off <*> off <*> len);
        (1, blit <$> alloc <*> off <*> alloc <*> off <*> len);
        ( 3,
          (fun a o n c -> Fill (a, o, n, c))
          <$> alloc <*> off <*> len <*> int_bound 255 );
        (1, map3 (fun a o n -> Read (a, o, n)) alloc off len);
        ( 1,
          map3
            (fun a o d -> Write (a, o, d))
            alloc off
            (string_size (int_bound 24)) );
      ]
  in
  pair
    (list_size (1 -- 3) (frequency [ (1, return 0); (4, int_bound 40) ]))
    (list_size (0 -- 30) op)

(* Run a trace against both stores, comparing every read as it happens
   and every byte of every allocation at the end. *)
let run_trace (sizes, ops) =
  Heap.reset ();
  let sizes = Array.of_list sizes in
  let ptrs = Array.map (Heap.alloc Space.Device) sizes in
  let model = Array.map (fun n -> Bytes.make n '\000') sizes in
  let nallocs = Array.length sizes in
  let ptr a o = Ptr.add_bytes ptrs.(a) o in
  let size a = sizes.(a mod nallocs) in
  (* The allocation [a] names, and an offset from [o] at which [len]
     bytes fit. *)
  let place a o len =
    let room = size a - len in
    if room < 0 then None else Some (a mod nallocs, o mod (room + 1))
  in
  (* A length from [n] that fits both allocations [a] and [b]. *)
  let fit n a b = n mod (min (size a) (size b) + 1) in
  let same_float x y =
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  let step = function
    | Set_f64 (a, o, b) -> (
        match place a o 8 with
        | None -> true
        | Some (a, o) ->
            let v = Int64.float_of_bits b in
            Access.raw_set_f64 (ptr a o) 0 v;
            Byte_store.set_f64 model.(a) o v;
            true)
    | Get_f64 (a, o) -> (
        match place a o 8 with
        | None -> true
        | Some (a, o) ->
            same_float
              (Access.raw_get_f64 (ptr a o) 0)
              (Byte_store.get_f64 model.(a) o))
    | Set_i32 (a, o, v) -> (
        match place a o 4 with
        | None -> true
        | Some (a, o) ->
            Access.raw_set_i32 (ptr a o) 0 v;
            Byte_store.set_i32 model.(a) o v;
            true)
    | Get_i32 (a, o) -> (
        match place a o 4 with
        | None -> true
        | Some (a, o) ->
            Access.raw_get_i32 (ptr a o) 0 = Byte_store.get_i32 model.(a) o)
    | Set_f32 (a, o, b) -> (
        match place a o 4 with
        | None -> true
        | Some (a, o) ->
            let v = Int32.float_of_bits b in
            Access.raw_set_f32 (ptr a o) 0 v;
            Byte_store.set_f32 model.(a) o v;
            true)
    | Get_f32 (a, o) -> (
        match place a o 4 with
        | None -> true
        | Some (a, o) ->
            same_float
              (Access.raw_get_f32 (ptr a o) 0)
              (Byte_store.get_f32 model.(a) o))
    | Blit (a, s, b, d, n) -> (
        let n = fit n a b in
        match (place a s n, place b d n) with
        | Some (a, s), Some (b, d) ->
            Access.raw_blit ~src:(ptr a s) ~dst:(ptr b d) ~bytes:n;
            Bytes.blit model.(a) s model.(b) d n;
            true
        | _ -> true)
    | Fill (a, o, n, c) -> (
        let n = fit n a a in
        match place a o n with
        | None -> true
        | Some (a, o) ->
            Access.raw_fill (ptr a o) ~bytes:n ~byte:c;
            Byte_store.fill model.(a) o ~bytes:n ~byte:c;
            true)
    | Read (a, o, n) -> (
        let n = fit n a a in
        match place a o n with
        | None -> true
        | Some (a, o) ->
            Bytes.equal
              (Access.raw_read_bytes (ptr a o) ~bytes:n)
              (Bytes.sub model.(a) o n))
    | Write (a, o, data) -> (
        let n = min (String.length data) (size a) in
        match place a o n with
        | None -> true
        | Some (a, o) ->
            let data = String.sub data 0 n in
            Access.raw_write_bytes (ptr a o) (Bytes.of_string data);
            Bytes.blit_string data 0 model.(a) o n;
            true)
  in
  let ok =
    List.for_all step ops
    && Array.for_all2
         (fun p m ->
           Bytes.equal (Access.raw_read_bytes p ~bytes:(Bytes.length m)) m)
         ptrs model
  in
  Heap.reset ();
  ok

(* Property: the word store behaves exactly like the byte store on any
   trace of raw accesses, bulk moves and snapshots, bit for bit —
   including misaligned accesses, overlapping blits in both directions,
   and signalling NaNs. *)
let prop_word_store_matches_bytes =
  let print (sizes, ops) =
    Printf.sprintf "sizes [%s]\n%s"
      (String.concat "; " (List.map string_of_int sizes))
      (String.concat "\n" (List.map pp_op ops))
  in
  QCheck.Test.make ~name:"word store = byte store" ~count:500 ~long_factor:20
    (QCheck.make ~print ~shrink:QCheck.Shrink.(pair nil list) gen_trace)
    run_trace

let tests =
  [
    Alcotest.test_case "alloc roundtrip f64" `Quick alloc_roundtrip;
    Alcotest.test_case "i32 roundtrip" `Quick i32_roundtrip;
    Alcotest.test_case "f32 roundtrip" `Quick f32_roundtrip;
    Alcotest.test_case "host deref of device ptr rejected" `Quick
      device_host_deref_rejected;
    Alcotest.test_case "managed host deref allowed" `Quick
      managed_host_deref_allowed;
    Alcotest.test_case "raw access ignores space" `Quick raw_access_ignores_space;
    Alcotest.test_case "out of bounds" `Quick out_of_bounds;
    Alcotest.test_case "use after free" `Quick use_after_free;
    Alcotest.test_case "double free" `Quick double_free;
    Alcotest.test_case "interior free rejected" `Quick interior_free_rejected;
    Alcotest.test_case "addresses disjoint" `Quick addresses_disjoint;
    Alcotest.test_case "find by addr" `Quick find_by_addr;
    Alcotest.test_case "UVA attributes" `Quick uva_attributes;
    Alcotest.test_case "hooks fire" `Quick hooks_fire;
    Alcotest.test_case "raw invisible to hooks" `Quick raw_does_not_fire_hooks;
    Alcotest.test_case "blit and fill" `Quick blit_and_fill;
    Alcotest.test_case "byte accounting" `Quick accounting;
    Alcotest.test_case "pointer arithmetic" `Quick ptr_arith;
    Alcotest.test_case "extent: exact passes" `Quick extent_exact;
    Alcotest.test_case "extent: one past raises" `Quick extent_one_past;
    Alcotest.test_case "extent: offset pointer shifts base" `Quick
      extent_offset_base;
    Alcotest.test_case "extent: use after free" `Quick extent_use_after_free;
    QCheck_alcotest.to_alcotest prop_f64_roundtrip;
    QCheck_alcotest.to_alcotest prop_disjoint_addrs;
    QCheck_alcotest.to_alcotest prop_word_store_matches_bytes;
  ]

let () = Alcotest.run "memsim" [ ("memsim", tests) ]
