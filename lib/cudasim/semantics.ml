(* The synchronization semantics matrix of CUDA memory operations
   (paper, Sections III-B2 and III-C, per the CUDA 11.5 documentation).

   Two views exist on purpose:
   - [actual_*]: what the simulated device really does (does the API
     call block the host until the operation completed?).
   - [modeled_*]: what CuSan assumes for race detection. Where the
     documentation says an operation "may be synchronous", CuSan is
     pessimistic and assumes it is NOT synchronizing, so latent races
     are still reported even when the current hardware happens to
     serialize them. *)

open Memsim

(* cudaMemcpy / cudaMemcpyAsync: does the call block the host? *)
let actual_memcpy_blocks ~src ~dst ~async =
  if async then
    (* Async transfers involving pageable host memory are staged through
       an internal pinned buffer and effectively synchronous on real
       hardware — a classic hidden behaviour. *)
    src = Space.Host_pageable || dst = Space.Host_pageable
  else
    (* Synchronous variant: blocking, except device-to-device copies
       which are asynchronous with respect to the host. *)
    not (Space.is_device_memory src && Space.is_device_memory dst)

(* What CuSan's model assumes: only the non-async variant with host
   memory involved is a synchronization point; everything documented
   "may be synchronous" is treated as not synchronizing. *)
let modeled_memcpy_syncs ~src ~dst ~async =
  (not async)
  && not (Space.is_device_memory src && Space.is_device_memory dst)

(* cudaMemset(Async): generally asynchronous w.r.t. the host; the
   exception is a pinned-host destination for the synchronous variant. *)
let actual_memset_blocks ~dst ~async = (not async) && dst = Space.Host_pinned
let modeled_memset_syncs ~dst ~async = (not async) && dst = Space.Host_pinned

(* cudaFree synchronizes the whole device; cudaFreeAsync does not. *)
let free_syncs_device ~async = not async
