(* Allocation registry for the simulated address space.

   The registry is domain-local: each domain of a sharded runner owns an
   independent simulated heap, so parallel case execution never shares
   allocation state (ids, liveness, peaks). Within a domain, behaviour
   is identical to the old process-global registry. *)

type state = {
  mutable next_id : int;
  live : (int, Alloc.t) Hashtbl.t;
  mutable bytes_live : int;
  mutable bytes_peak : int;
}

let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { next_id = 0; live = Hashtbl.create 64; bytes_live = 0; bytes_peak = 0 })

let alloc ?(tag = "alloc") space size =
  if size < 0 then invalid_arg "Heap.alloc: negative size";
  let st = Domain.DLS.get state in
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  let data = Float.Array.make ((size + 7) lsr 3) 0. in
  let a = { Alloc.id; space; size; data; tag; freed = false } in
  Hashtbl.replace st.live id a;
  st.bytes_live <- st.bytes_live + size;
  if st.bytes_live > st.bytes_peak then st.bytes_peak <- st.bytes_live;
  Hooks.fire_alloc a;
  Ptr.make a

let free (p : Ptr.t) =
  let st = Domain.DLS.get state in
  let a = p.Ptr.alloc in
  Alloc.check_live a;
  if p.Ptr.off <> 0 then invalid_arg "Heap.free: interior pointer";
  Hooks.fire_free a;
  a.Alloc.freed <- true;
  st.bytes_live <- st.bytes_live - a.Alloc.size;
  Hashtbl.remove st.live a.Alloc.id

let find_by_addr addr =
  let st = Domain.DLS.get state in
  match Hashtbl.find_opt st.live (Alloc.id_of_addr addr) with
  | Some a when addr >= Alloc.base a && addr < Alloc.limit a -> Some a
  | _ -> None

let live_bytes () = (Domain.DLS.get state).bytes_live
let peak_bytes () = (Domain.DLS.get state).bytes_peak
let live_count () = Hashtbl.length (Domain.DLS.get state).live

(* Reset the whole simulated heap; used between independent test runs. *)
let reset () =
  let st = Domain.DLS.get state in
  Hashtbl.reset st.live;
  st.next_id <- 0;
  st.bytes_live <- 0;
  st.bytes_peak <- 0
