(* Shadow memory as flat arena-backed pages.

   A region (one allocation, or a wild single-granule mapping) is an
   array of pages, each covering [cells_per_page] cells of [granule]
   bytes. A page is in one of three states:

   - [Untouched]: never accessed; costs nothing.
   - [Uniform]: every cell of the page carries the same
     {w_epoch, r_epoch, w_origin, r_origin} quadruple. One small summary
     record stands in for the whole page — this is both the fast path
     (the detector transitions a uniform page with O(1) work instead of
     a cell loop) and the memory win (a summary accounts for
     [summary_bytes], not [page_bytes]). CuSan's whole-allocation
     annotations keep almost every page uniform.
   - [Cells]: cells within the page diverged (partial-extent accesses,
     mixed epochs); the page owns a flat arena chunk packing the four
     fields at stride 4, materialized lazily from the summary and
     accounted at the full [page_bytes] — the RSS model fig11 measures.

   The simulated address space spaces allocations 2^36 apart (see
   Memsim.Alloc), so the region holding an address is found by one shift
   and a hash lookup; the detector additionally keeps a per-fiber
   last-hit region cache validated against [version] (bumped on every
   map/unmap) so the common case touches neither.

   Arena chunks and promoted read vector clocks are pooled: unmapping a
   region (allocator reuse, cudaFree) returns its chunks and clocks to
   free lists instead of the GC. *)

let slot_shift = 36

(* Page geometry: 128 cells per page; at the default 8-byte granule one
   page shadows 1 KiB of application memory with 4 KiB of shadow — the
   same 4:1 ratio as the previous per-cell representation and real TSan.
   A uniform summary is accounted at [summary_bytes] (the approximate
   heap cost of the record). *)
let page_shift = 7
let cells_per_page = 1 lsl page_shift
let cell_bytes = 4 * 8 (* four shadow words per cell *)
let page_bytes = cells_per_page * cell_bytes
let summary_bytes = 64

type uniform = {
  mutable u_we : int; (* shared write epoch *)
  mutable u_re : int; (* shared read epoch; [promoted] = see [u_rvc] *)
  mutable u_wo : int; (* shared interned write origin *)
  mutable u_ro : int;
  mutable u_rvc : Vclock.t option; (* shared promoted read clock *)
}

type page =
  | Untouched
  | Uniform of uniform
  | Cells of int array
      (* arena chunk, stride 4: cell i of the page lives at
         [4*i .. 4*i+3] = {w_epoch, r_epoch, w_origin, r_origin} *)

type region = {
  base : int;
  size : int;
  granule : int;
  wild : bool; (* mapped on demand for an unshadowed access, not an alloc *)
  ncells : int;
  pages : page array;
  read_vcs : (int, Vclock.t) Hashtbl.t; (* per-cell promoted clocks *)
  mutable touched_bytes : int;
}

type t = {
  regions : (int, region list) Hashtbl.t;
  granule : int;
  mutable bytes : int; (* materialized shadow bytes *)
  mutable bytes_peak : int;
  mutable version : int; (* bumped on map/unmap; validates caches *)
  mutable chunk_pool : int array list;
  mutable chunk_pool_len : int;
  mutable vc_pool : Vclock.t list;
  mutable vc_pool_len : int;
}

let promoted = -1

let create ?(granule = 8) () =
  if granule <= 0 then invalid_arg "Shadow.create: granule";
  {
    regions = Hashtbl.create 64;
    granule;
    bytes = 0;
    bytes_peak = 0;
    version = 0;
    chunk_pool = [];
    chunk_pool_len = 0;
    vc_pool = [];
    vc_pool_len = 0;
  }

let version t = t.version

(* --- accounting ------------------------------------------------------ *)

let account t region delta =
  region.touched_bytes <- region.touched_bytes + delta;
  t.bytes <- t.bytes + delta;
  if t.bytes > t.bytes_peak then t.bytes_peak <- t.bytes

(* --- pools ----------------------------------------------------------- *)

let chunk_pool_cap = 64
let vc_pool_cap = 256

let chunk_alloc t =
  match t.chunk_pool with
  | c :: rest ->
      t.chunk_pool <- rest;
      t.chunk_pool_len <- t.chunk_pool_len - 1;
      Array.fill c 0 (Array.length c) 0;
      c
  | [] -> Array.make (4 * cells_per_page) 0

let chunk_free t c =
  if t.chunk_pool_len < chunk_pool_cap then begin
    t.chunk_pool <- c :: t.chunk_pool;
    t.chunk_pool_len <- t.chunk_pool_len + 1
  end

let vc_alloc t =
  match t.vc_pool with
  | vc :: rest ->
      t.vc_pool <- rest;
      t.vc_pool_len <- t.vc_pool_len - 1;
      Vclock.reset vc;
      vc
  | [] -> Vclock.create ()

let vc_free t vc =
  if t.vc_pool_len < vc_pool_cap then begin
    t.vc_pool <- vc :: t.vc_pool;
    t.vc_pool_len <- t.vc_pool_len + 1
  end

(* --- mapping --------------------------------------------------------- *)

let release_region t r =
  Array.iteri
    (fun p st ->
      match st with
      | Untouched -> ()
      | Uniform u ->
          (match u.u_rvc with Some vc -> vc_free t vc | None -> ());
          r.pages.(p) <- Untouched
      | Cells c ->
          chunk_free t c;
          r.pages.(p) <- Untouched)
    r.pages;
  Hashtbl.iter (fun _ vc -> vc_free t vc) r.read_vcs;
  Hashtbl.reset r.read_vcs;
  t.bytes <- t.bytes - r.touched_bytes;
  r.touched_bytes <- 0

let map ?(wild = false) t ~base ~size =
  let n = max 1 ((size + t.granule - 1) / t.granule) in
  let npages = (n + cells_per_page - 1) lsr page_shift in
  let region =
    {
      base;
      size;
      granule = t.granule;
      wild;
      ncells = n;
      pages = Array.make npages Untouched;
      read_vcs = Hashtbl.create 4;
      touched_bytes = 0;
    }
  in
  let slot = base lsr slot_shift in
  let others =
    match Hashtbl.find_opt t.regions slot with
    | None -> []
    | Some rs ->
        (* Remapping an existing base (allocator reuse) replaces it. *)
        List.iter (fun r -> if r.base = base then release_region t r) rs;
        List.filter (fun r -> r.base <> base) rs
  in
  Hashtbl.replace t.regions slot (region :: others);
  t.version <- t.version + 1;
  region

let unmap t ~base =
  let slot = base lsr slot_shift in
  match Hashtbl.find_opt t.regions slot with
  | None -> ()
  | Some rs ->
      List.iter (fun r -> if r.base = base then release_region t r) rs;
      (match List.filter (fun r -> r.base <> base) rs with
      | [] -> Hashtbl.remove t.regions slot
      | rs' -> Hashtbl.replace t.regions slot rs');
      t.version <- t.version + 1

(* The extent a region answers for. Allocation regions also field
   accesses past their end (clamped to the last cell by [cell_range]) —
   overflowing accesses still collide with the allocation, as they
   would on real shadow. Wild single-granule regions answer only for
   their own granule, so distinct unshadowed addresses never alias. *)
let covers r addr =
  if r.wild then addr >= r.base && addr < r.base + max r.size r.granule
  else addr >= r.base

let find t addr =
  match Hashtbl.find_opt t.regions (addr lsr slot_shift) with
  | None -> None
  | Some rs -> List.find_opt (fun r -> covers r addr) rs

(* Find the region for [addr], mapping a fresh granule-aligned region
   at the access address for addresses TSan never saw allocated (real
   TSan shadows everything). Basing the wild region at the address —
   not at the 2^36 slot base — keeps unrelated unshadowed addresses in
   distinct cells instead of conflating them all into cell 0 of one
   slot-based region. *)
let find_or_map t addr =
  match find t addr with
  | Some r -> r
  | None -> map ~wild:true t ~base:(addr - (addr mod t.granule)) ~size:t.granule

(* Cell index range covering [addr, addr+len). *)
let cell_range region ~addr ~len =
  let lo = (addr - region.base) / region.granule in
  let hi = (addr + len - 1 - region.base) / region.granule in
  let last = region.ncells - 1 in
  (max 0 (min lo last), max 0 (min hi last))

(* --- page access ----------------------------------------------------- *)

let npages region = Array.length region.pages
let page region p = Array.unsafe_get region.pages p

(* Last cell index the page [p] actually covers (tail pages may be
   partial). *)
let page_last region p =
  let last = ((p + 1) lsl page_shift) - 1 in
  if last < region.ncells then last else region.ncells - 1

(* Untouched -> Uniform: the whole page takes one shared quadruple. *)
let set_uniform t region p ~we ~re ~wo ~ro =
  region.pages.(p) <- Uniform { u_we = we; u_re = re; u_wo = wo; u_ro = ro; u_rvc = None };
  account t region summary_bytes

(* Untouched/Uniform -> Cells: back the page with an arena chunk,
   spreading the summary (if any) over the cells. A shared promoted
   read clock is copied per cell — each cell's reader set may diverge
   from here on. *)
let materialize t region p =
  let chunk = chunk_alloc t in
  (match region.pages.(p) with
  | Cells _ -> assert false
  | Untouched -> account t region page_bytes
  | Uniform u ->
      let first = p lsl page_shift in
      let last = page_last region p in
      for i = 0 to last - first do
        let o = i * 4 in
        Array.unsafe_set chunk o u.u_we;
        Array.unsafe_set chunk (o + 1) u.u_re;
        Array.unsafe_set chunk (o + 2) u.u_wo;
        Array.unsafe_set chunk (o + 3) u.u_ro
      done;
      (match u.u_rvc with
      | Some rvc ->
          for c = first to last do
            Hashtbl.replace region.read_vcs c (Vclock.copy rvc)
          done;
          vc_free t rvc
      | None -> ());
      account t region (page_bytes - summary_bytes));
  region.pages.(p) <- Cells chunk;
  chunk

(* Cells -> Uniform: a full-page access left every cell identical;
   collapse back to a summary and recycle the chunk. The caller
   guarantees no cell of the page holds a promoted read clock. *)
let collapse t region p ~we ~re ~wo ~ro =
  (match region.pages.(p) with
  | Cells c -> chunk_free t c
  | _ -> assert false);
  region.pages.(p) <- Uniform { u_we = we; u_re = re; u_wo = wo; u_ro = ro; u_rvc = None };
  account t region (summary_bytes - page_bytes)

let shadow_bytes t = t.bytes
let shadow_bytes_peak t = t.bytes_peak
