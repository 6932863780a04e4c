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

(* Checked extents: one check covers [0, count), the returned offset is
   element 0 of the (possibly offset) pointer, and liveness is part of
   the check. *)
let extent_exact () =
  with_clean @@ fun () ->
  let p = Heap.alloc Space.Device 64 in
  Access.raw_set_f64 p 7 2.5;
  let b, o = Access.f64_extent p ~count:8 in
  Alcotest.(check int) "offset of element 0" 0 o;
  Alcotest.(check (float 0.)) "element 7 through the bytes" 2.5
    (Int64.float_of_bits (Bytes.get_int64_le b (o + (7 * 8))))

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
  let b, o = Access.f64_extent (Ptr.add p ~elt:8 3) ~count:5 in
  Alcotest.(check int) "base shifted by 3 elements" 24 o;
  Alcotest.(check (float 0.)) "element 0 aliases p[3]" 9.0
    (Int64.float_of_bits (Bytes.get_int64_le b o))

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
  ]

let () = Alcotest.run "memsim" [ ("memsim", tests) ]
