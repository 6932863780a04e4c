(** Shadow memory as flat arena-backed pages.

    A region is an array of pages, each covering {!cells_per_page}
    shadow cells of [granule] bytes. Pages are lazily materialized:
    untouched pages cost nothing; pages whose cells all share one
    {w_epoch, r_epoch, w_origin, r_origin} quadruple are a small
    {!uniform} summary (accounted at {!summary_bytes}); only pages whose
    cells diverged own a flat arena chunk accounted at the full
    {!page_bytes}. This is what makes CuSan's whole-allocation
    device-pointer annotations "the majority of memory usage" (paper,
    Section V-A2) in the fig11 RSS model while keeping the common
    full-extent annotation O(1) per page, and plain TSan never pays for
    device memory the host cannot touch.

    Arena chunks and promoted read vector clocks are pooled across
    map/unmap churn. *)

val slot_shift : int
(** Allocations are spaced [2^slot_shift] apart in the simulated address
    space (see {!Memsim.Alloc}), so the region holding an address is one
    shift and a table lookup away. *)

val page_shift : int
(** [cells_per_page = 1 lsl page_shift]. *)

val cells_per_page : int

val page_bytes : int
(** Accounted cost of a materialized (per-cell) page. *)

val summary_bytes : int
(** Accounted cost of a uniform page summary. *)

type uniform = {
  mutable u_we : int;  (** shared write epoch *)
  mutable u_re : int;  (** shared read epoch; {!promoted} = see [u_rvc] *)
  mutable u_wo : int;  (** shared interned write origin *)
  mutable u_ro : int;
  mutable u_rvc : Vclock.t option;  (** shared promoted read clock *)
}

type page =
  | Untouched  (** never accessed; costs nothing *)
  | Uniform of uniform  (** all cells identical: one summary *)
  | Cells of int array
      (** diverged: arena chunk, stride 4 —
          [{w_epoch; r_epoch; w_origin; r_origin}] per cell *)

type region = {
  base : int;
  size : int;
  granule : int;  (** bytes covered by one cell *)
  wild : bool;
      (** mapped on demand for an access TSan never saw allocated; such
          a region answers only for its own granule, so distinct
          unshadowed addresses never alias *)
  ncells : int;
  pages : page array;
  read_vcs : (int, Vclock.t) Hashtbl.t;
      (** per-cell promoted shared-read clocks (materialized pages) *)
  mutable touched_bytes : int;
}

type t

val promoted : int
(** Sentinel read-epoch: the cell's (or uniform page's) reads are
    tracked by a vector clock. *)

val create : ?granule:int -> unit -> t
(** [granule] defaults to 8 bytes per cell; coarser granules cost less
    time and memory at the price of detection precision (ablated in
    [bench/]). *)

val version : t -> int
(** Bumped on every map/unmap; validates the detector's per-fiber
    last-hit region cache. *)

val map : ?wild:bool -> t -> base:int -> size:int -> region
(** Reserve shadow for an allocation (no memory is accounted yet).
    [wild] marks an on-demand region for an unshadowed access. *)

val unmap : t -> base:int -> unit
(** Release a region and its accounted bytes (the peak is kept); its
    chunks and clocks return to the pools. *)

val covers : region -> int -> bool
val find : t -> int -> region option

val find_or_map : t -> int -> region
(** The region holding an address, mapping a fresh granule-aligned
    region at the access address for addresses TSan never saw allocated
    (real TSan shadows everything). *)

val cell_range : region -> addr:int -> len:int -> int * int
(** Cell index range covering [addr, addr+len), clamped to the region. *)

val npages : region -> int
val page : region -> int -> page

val page_last : region -> int -> int
(** Last cell index page [p] covers (tail pages may be partial). *)

val set_uniform : t -> region -> int -> we:int -> re:int -> wo:int -> ro:int -> unit
(** Untouched -> Uniform: the page takes one shared quadruple, accounted
    at {!summary_bytes}. *)

val materialize : t -> region -> int -> int array
(** Untouched/Uniform -> Cells: back the page with an arena chunk,
    spreading the summary (shared promoted clocks are copied per cell)
    and accounting the difference up to {!page_bytes}. *)

val collapse : t -> region -> int -> we:int -> re:int -> wo:int -> ro:int -> unit
(** Cells -> Uniform: a full-page access left every cell identical;
    recycle the chunk and account back down to {!summary_bytes}. The
    caller guarantees no cell of the page holds a promoted clock. *)

val vc_alloc : t -> Vclock.t
(** A zeroed vector clock from the pool (promoted-read promotion). *)

val vc_free : t -> Vclock.t -> unit

val shadow_bytes : t -> int
(** Currently materialized shadow bytes (summaries + chunks). *)

val shadow_bytes_peak : t -> int
